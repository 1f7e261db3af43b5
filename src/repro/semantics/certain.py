"""Brute-force certain answers by possible-world enumeration.

This module implements the classical, intersection-based definition of
certain answers (paper, eq. (1))::

    certain(Q, D) = ⋂ { Q(D') | D' ∈ [[D]] }

directly, by enumerating the (finitely approximated) set of worlds from
:mod:`repro.semantics.worlds` and intersecting the query answers.  It is
deliberately naive: it serves as the *ground truth* against which the
efficient methods (naive evaluation, ``RA_cwa`` evaluation, c-table
algebra) are validated, and as the "expensive" side of the complexity-shape
benchmarks.  Its cost is exponential in the number of nulls.  A Boolean
query is the 0-ary query it is (:class:`NonEmpty`: ``{()}`` where it
holds, ``{}`` where not), so Boolean certainty is the same intersection
fold, and false when no world exists, like every other empty
intersection.

Two properties this module guarantees beyond the definition:

* **Deterministic total order.**  The world enumerators visit worlds in a
  fixed order (nulls sorted by name, domains sorted, extra-fact pools in
  schema order — see :mod:`repro.semantics.worlds`), and one sequential
  fold consumes them in that order.  A plain count of consumed worlds is
  therefore a valid *checkpoint*: an interrupted enumeration can resume
  by skipping that many worlds (``resume=`` below, carried by
  :class:`~repro.resilience.ResumeToken`).
* **Exact accounting.**  The fold ticks the armed budget once per world,
  before evaluating it, so ``max_worlds`` stops the run at exactly that
  many worlds and the checkpoint counts only worlds fully consumed: a
  world whose evaluation was cut short is re-run on resume.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Set

from ..datamodel import Database, Relation
from ..datamodel.relations import Row
from ..datamodel.schema import RelationSchema
from ..obs.metrics import current_metrics
from ..obs.trace import current_tracer
from ..resilience import BudgetExceeded, InvalidRequestError, ResumeToken, active_budget
from .registry import semantics_named

Evaluator = Callable[[Database], Relation]
"""A query, abstractly: a function from complete databases to relations."""


def _worlds(
    semantics: Any,
    database: Database,
    domain: Optional[Sequence[Any]],
    extra_constants: Optional[int],
    max_extra_facts: int,
    interchangeable: Sequence[Any] = (),
) -> Iterator[Database]:
    """The worlds of ``database`` under ``semantics``: a name registered in
    :data:`repro.semantics.registry.SEMANTICS`, or its row."""
    return semantics_named(semantics).worlds(
        database, domain, extra_constants, max_extra_facts, interchangeable=interchangeable
    )


def _evaluated(evaluate: Callable[[Any], Any], world_iter: Iterable[Any]) -> Iterator[Any]:
    """``evaluate(world)`` for each world: the one loop over possible worlds.

    Each world first ticks the armed budget (``max_worlds``, the
    deadline, ``Session.cancel()``), then is evaluated under a
    ``world.evaluate`` span and counted in ``worlds.evaluated``.  A fold
    that stops early simply stops pulling, so only the worlds it consumed
    are counted.
    """
    state = active_budget()
    check = None if state is None else state.tick_world
    registry = current_metrics()
    tracer = current_tracer()
    for world in world_iter:
        if check is not None:
            check()
        if tracer is not None:
            with tracer.span("world.evaluate"):
                answer = evaluate(world)
        else:
            answer = evaluate(world)
        if registry is not None:
            registry.count("worlds.evaluated")
        yield answer


class _Intersection:
    """The running intersection of the answers over the worlds consumed so far."""

    __slots__ = ("schema", "rows", "done")

    def __init__(self, resume: Optional[ResumeToken] = None) -> None:
        self.schema: Optional[RelationSchema] = None
        self.rows: Optional[Set[Row]] = None
        self.done = 0
        if resume is not None:
            self.schema = resume.schema
            self.rows = None if resume.intersection is None else set(resume.intersection)
            self.done = resume.worlds_done

    def fold(self, evaluate: Callable[[Any], Relation], world_iter: Iterable[Any]) -> "_Intersection":
        """Intersect ``evaluate(world)`` in for each world, stopping once empty."""
        for answer in _evaluated(evaluate, world_iter):
            self.done += 1
            if self.rows is None:
                self.schema, self.rows = answer.schema, set(answer.rows)
            else:
                self.rows &= answer.rows
            if not self.rows:
                break
        return self

    def relation(self, fallback: Callable[[], Relation]) -> Relation:
        """The intersection; with no world at all, the empty answer of ``fallback()``."""
        if self.schema is None or self.rows is None:
            # No world only happens for an empty valuation domain.
            return Relation(fallback().schema, ())
        return Relation(self.schema, self.rows)


def certain_over(evaluate: Callable[[Any], Relation], world_iter: Iterable[Any], fallback: Callable[[], Relation]) -> Relation:
    """``⋂ evaluate(world)`` over ``world_iter``: the intersection fold.

    With no world at all the result is empty, with the schema of
    ``fallback()`` (the query's answer on some stand-in for the source).
    """
    return _Intersection().fold(evaluate, world_iter).relation(fallback)


def possible_over(evaluate: Callable[[Any], Relation], world_iter: Iterable[Any], fallback: Callable[[], Relation]) -> Relation:
    """``⋃ evaluate(world)`` over ``world_iter``: the union fold (``fallback`` as above)."""
    schema: Optional[RelationSchema] = None
    possible: Set[Row] = set()
    for answer in _evaluated(evaluate, world_iter):
        if schema is None:
            schema = answer.schema
        possible |= answer.rows
        if possible and not schema.attributes:
            break  # a 0-ary answer is at most {()}: no world can add to it
    if schema is None:
        schema = fallback().schema
    return Relation(schema, possible)


def space_over(evaluate: Callable[[Any], Any], world_iter: Iterable[Any]) -> Set[Any]:
    """``{evaluate(world)}`` over ``world_iter``: the set of answers."""
    return set(_evaluated(evaluate, world_iter))


_BOOLEAN = RelationSchema("Boolean", ())
_HOLDS = Relation(_BOOLEAN, [()])
_FAILS = Relation(_BOOLEAN, ())


class NonEmpty:
    """A Boolean query as the 0-ary one it is: ``{()}`` where it holds, else ``{}``.

    ``NonEmpty(evaluate)(world)`` is :data:`_HOLDS` when
    ``evaluate(world)`` is truthy (a true Boolean, a non-empty answer),
    so the intersection fold over these answers is Boolean certainty and
    the union fold Boolean possibility.
    """

    __slots__ = ("evaluate",)

    def __init__(self, evaluate: Callable[[Database], Any]) -> None:
        self.evaluate = evaluate

    def __call__(self, world: Database) -> Relation:
        return _HOLDS if self.evaluate(world) else _FAILS


def enumerate_certain_answers(
    evaluate: Evaluator,
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    resume: Optional[ResumeToken] = None,
    *,
    interchangeable: Sequence[Any] = (),
) -> Relation:
    """Intersection-based certain answers computed by world enumeration.

    The worlds are streamed, never materialized, through one sequential
    fold; an empty running intersection stops the enumeration at once.

    Parameters
    ----------
    evaluate:
        The query, as a function from complete databases to relations.
    database:
        The incomplete input database.
    semantics:
        A name registered in :data:`repro.semantics.registry.SEMANTICS`,
        or its row; its worlds are enumerated.
    domain, extra_constants, max_extra_facts:
        Passed to the world enumerators (see :mod:`repro.semantics.worlds`),
        which check them before the first world.
    resume:
        A :class:`~repro.resilience.ResumeToken` from a previous,
        budget-interrupted run over the *same* inputs: the first
        ``resume.worlds_done`` worlds are skipped (the enumeration order
        is deterministic) and the running intersection is seeded from the
        token.  A token that counts the other enumeration (its
        ``interchangeable`` differs) raises
        :class:`~repro.resilience.InvalidRequestError`; otherwise this
        function trusts the token.  Sessions reach it through
        :func:`repro.core.answers.enumeration_strategy`, which also checks
        the token's ``key`` and kernel epoch against the inputs.
    interchangeable:
        Values of the domain the query cannot tell apart: outside the
        database and the query, pairwise distinct.  With at least two,
        only the canonical valuations run (one per renaming of these
        values, :mod:`repro.semantics.worlds`) and answer rows holding one
        of them are dropped; for a generic query (equality-only
        relational algebra, first-order logic) the answer is the same as
        over every valuation.  The default, none, enumerates every
        valuation.

    Returns
    -------
    Relation
        The relation of tuples present in the answer over *every*
        enumerated world.  The schema is taken from the first answer.

    When an armed budget expires mid-run, the raised
    :class:`~repro.resilience.BudgetExceeded` carries a
    :class:`~repro.resilience.ResumeToken` (``error.resume_token``)
    checkpointing the worlds fully consumed, so the caller can continue
    instead of restarting.
    """
    fresh = tuple(interchangeable) if len(interchangeable) >= 2 else ()
    world_iter = _worlds(
        semantics, database, domain, extra_constants, max_extra_facts, interchangeable=fresh
    )
    if resume is not None and tuple(resume.interchangeable) != fresh:
        raise InvalidRequestError(
            "resume token does not match this enumeration: it counts the worlds of "
            f"valuations canonical over {resume.interchangeable!r}, this run's are "
            f"canonical over {fresh!r} (() is every valuation)"
        )
    running = _Intersection(resume)
    if running.done:
        world_iter = itertools.islice(world_iter, running.done, None)
    if running.rows is not None and not running.rows:
        # The interrupted run had already emptied the intersection — the
        # answer is final, no world can add rows back.
        world_iter = iter(())
    try:
        running.fold(evaluate, world_iter)
    except BudgetExceeded as error:
        # Checkpoint the worlds *fully consumed* (a world whose evaluation
        # the budget cut short is not counted and will be re-run).  The
        # running intersection is a superset of the certain answers, so it
        # travels inside the token — never as a result.
        error.resume_token = ResumeToken(
            worlds_done=running.done,
            schema=running.schema,
            intersection=None if running.rows is None else frozenset(running.rows),
            interchangeable=fresh,
        )
        raise
    answer = running.relation(lambda: evaluate(database.complete_part()))
    if fresh and answer.rows:
        # A canonical world stands for all its renamings: a row holding an
        # interchangeable value is not in every renamed answer.
        dropped = set(fresh)
        answer = Relation(answer.schema, [row for row in answer.rows if dropped.isdisjoint(row)])
    return answer


def enumerate_possible_answers(
    evaluate: Evaluator,
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> Relation:
    """Union-based *possible* answers (tuples appearing in at least one world)."""
    return possible_over(
        evaluate,
        _worlds(semantics, database, domain, extra_constants, max_extra_facts),
        lambda: evaluate(database.complete_part()),
    )


def answer_space(
    evaluate: Evaluator,
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> Set[frozenset]:
    """The set ``Q([[D]])`` of answers over all enumerated worlds.

    Each answer is returned as a frozen set of rows, so the result is a set
    of sets — the object that strong representation systems must capture
    exactly (paper, eq. (2)).
    """
    return space_over(
        lambda world: frozenset(evaluate(world).rows),
        _worlds(semantics, database, domain, extra_constants, max_extra_facts),
    )


def enumerate_certain_boolean(
    evaluate: Callable[[Database], bool],
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> bool:
    """Certain answer of a Boolean query: true iff true in every enumerated world.

    The intersection of :func:`enumerate_certain_answers` over the
    query's 0-ary answers (:class:`NonEmpty`), with its early stop and
    options; with no world at all it is false.
    A budget expiry raises without a resume token (a 0-ary checkpoint).
    """
    try:
        return bool(enumerate_certain_answers(
            NonEmpty(evaluate), database, semantics, domain, extra_constants, max_extra_facts
        ))
    except BudgetExceeded as error:
        error.resume_token = None
        raise


def enumerate_possible_boolean(
    evaluate: Callable[[Database], bool],
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> bool:
    """Possibility of a Boolean query: true iff true in at least one world."""
    return bool(enumerate_possible_answers(
        NonEmpty(evaluate), database, semantics, domain, extra_constants, max_extra_facts
    ))
