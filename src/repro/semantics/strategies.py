"""How a session answers: the strategy rows and the one answering walk.

Certainty is a *mode of answering*, and the method that computes it
depends only on the query's fragment and the semantics (eq. (4); Section
7 for sound approximations).  What a semantics *is* is its row in
:mod:`repro.semantics.registry`; this module, above :mod:`repro.core`,
holds how answers are computed: the :class:`Strategy` rows — ``naive``
(exact when the fragment test applies), ``sound_cwa`` (a sound subset;
closed worlds, relational algebra), ``lineage`` (exact for generic
relational algebra under closed worlds, :mod:`repro.semantics.lineage`)
and ``enumeration`` (exact, not polynomial) — each mode's list of them
(:func:`strategies`), :func:`choose` and :func:`degrade` over it, and
:func:`walk`, the one path ``Query.certain()``, ``possible()``,
``boolean()`` and ``cursor(certain=True)`` take.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, NamedTuple, Optional, Sequence, Tuple

from ..algebra.ast import RAExpression
from ..core.answers import Query as QueryLike
from ..core.answers import (
    enumeration_domain, enumeration_strategy, naive_strategy, not_generic, valuation_space,
)
from ..core.naive_evaluation import Applicability, naive_verdict
from ..core.sound_evaluation import sound_certain_answers
from ..datamodel import Database, Relation
from ..logic.formulas import FOQuery
from ..obs.trace import span
from ..resilience import BudgetExceeded, InvalidRequestError, PartialResult, SessionClosedError
from .certain import NonEmpty
from .lineage import lineage_strategy
from .registry import WorldSemantics


class Strategy(NamedTuple):
    """One row of a strategy list: a way to compute answers.

    ``applies(semantics, query)`` is the verdict that the answer is sound
    — and, for an ``exact`` strategy, complete.  ``run(query, mode,
    domain, extra_constants, max_extra_facts, resume)`` computes it from a
    :class:`~repro.session.Query` handle and the call's options.  A
    ``polynomial`` strategy may run after a budget expired.
    """

    name: str
    label: str
    exact: bool
    polynomial: bool
    applies: Callable[..., Applicability]
    run: Callable[..., Any]


class Mode(NamedTuple):
    """A mode of answering: the ``Query`` method, its fold over the worlds
    (``"certain"`` or ``"possible"``), whether it answers the 0-ary "the
    answer is non-empty", and the entry scope it opens."""

    name: str
    fold: str
    boolean: bool
    entry: str


CERTAIN = Mode("certain", "certain", False, "query.certain")
POSSIBLE = Mode("possible", "possible", False, "query.possible")
#: ``boolean(mode=)`` -> its mode.
BOOLEAN = {fold: Mode("boolean", fold, True, "query.boolean") for fold in ("certain", "possible")}


class _WorldEvaluator:
    """Evaluates one query per enumerated world.

    Every world-enumeration path (``certain()``, ``possible()``,
    ``boolean()``) evaluates through this.  Worlds always run in memory —
    ``"sqlite"`` sessions take the plan engine, which the differential
    suites hold equal to SQLite, instead of refilling the backend once
    per world.  It runs on the session's plan cache and refuses to run
    once the session is closed.
    """

    __slots__ = ("query", "interpret", "plan_cache", "session")

    def __init__(self, query: QueryLike, session: Any) -> None:
        self.query = query
        self.interpret = session._engine.interprets
        self.plan_cache = session.plan_cache
        self.session = session

    def __call__(self, world: Database) -> Relation:
        if self.session._closed:
            raise SessionClosedError("session is closed")
        query = self.query
        if isinstance(query, FOQuery):
            return query.evaluate(world)
        if self.interpret:
            return query._interpret(world)
        return self.plan_cache.execute(query, world)


def _naive(query, mode, domain, extra_constants, max_extra_facts, resume) -> Relation:
    return naive_strategy(query.expression, query._require_database(), query.session._evaluate)


def _sound(query, mode, domain, extra_constants, max_extra_facts, resume) -> Relation:
    return sound_certain_answers(query.expression, query._require_database())


def _lineage(query, mode, domain, extra_constants, max_extra_facts, resume) -> Relation:
    session = query.session
    return lineage_strategy(
        query.expression, query._require_database(), domain, extra_constants,
        session.evaluate_ctable, session.kernel,
    )


def _enumerate(query, mode, domain, extra_constants, max_extra_facts, resume) -> Any:
    """World enumeration on the session's per-world evaluator (a Boolean
    evaluates :class:`NonEmpty` of it)."""
    session = query.session
    per_world: Any = _WorldEvaluator(query.expression, session)
    return enumeration_strategy(
        query.expression, query._require_database(), session._evaluate,
        semantics=session._semantics, domain=domain, extra_constants=extra_constants,
        max_extra_facts=max_extra_facts,
        world_evaluator=NonEmpty(per_world) if mode.boolean else per_world,
        mode=mode.fold, resume=resume, kernel_epoch=session.kernel.epoch,
    )


def _sound_verdict(semantics: WorldSemantics, query: Any) -> Applicability:
    if isinstance(query, RAExpression):
        return Applicability(True, semantics.name, "RA", "polynomial CWA approximation")
    return Applicability(False, semantics.name, "FO", "relational algebra only")


def _lineage_verdict(semantics: WorldSemantics, query: Any) -> Applicability:
    if not isinstance(query, RAExpression):
        return Applicability(False, semantics.name, "FO", "relational algebra only")
    reason = not_generic(query)
    if reason:
        return Applicability(False, semantics.name, "RA", reason)
    return Applicability(True, semantics.name, "RA", "generic: a valid lineage is a certain answer")


NAIVE = Strategy(
    "naive", "naive evaluation", True, True,
    lambda semantics, query: naive_verdict(query, semantics), _naive,
)
SOUND_CWA = Strategy("sound_cwa", "sound CWA approximation", False, True, _sound_verdict, _sound)
LINEAGE = Strategy("lineage", "lineage validity", True, False, _lineage_verdict, _lineage)
ENUMERATION = Strategy(
    "enumeration", "world enumeration", True, False,
    lambda semantics, query: Applicability(True, semantics.name, "any", "every world"),
    _enumerate,
)
_OPEN = (NAIVE, ENUMERATION)
_CLOSED = (NAIVE, SOUND_CWA, LINEAGE, ENUMERATION)
_ENUMERATION_ONLY = (ENUMERATION,)
#: The strategies that answer over the unrestricted domain: a call that
#: restricts the valuations to a ``domain`` skips them (with ``domain=[]``
#: a database with nulls has no world at all).
_DOMAIN_BLIND = (NAIVE, SOUND_CWA)
#: The strategies ``certain(method=)`` may force.
METHODS = {"naive": NAIVE, "enumeration": ENUMERATION}


def strategies(semantics: WorldSemantics, mode: Mode, domain: Any = None) -> Sequence[Strategy]:
    """``mode``'s strategy list under ``semantics``, cheapest first: for
    ``certain()`` the open- or closed-world one by ``grows``, else world
    enumeration alone; a ``domain`` skips :data:`_DOMAIN_BLIND`."""
    if mode is not CERTAIN:
        return _ENUMERATION_ONLY
    listed = _OPEN if semantics.grows else _CLOSED
    if domain is not None:
        return [strategy for strategy in listed if strategy not in _DOMAIN_BLIND]
    return listed


def forced_method(method: Any) -> Optional[Strategy]:
    """The strategy ``certain(method=)`` forces (``None`` for ``"auto"``);
    any other name raises :class:`InvalidRequestError`."""
    if method == "auto":
        return None
    strategy = METHODS.get(method) if isinstance(method, str) else None
    if strategy is None:
        raise InvalidRequestError(
            f"unknown method {method!r}; expected 'auto', 'naive' or 'enumeration'"
        )
    return strategy


def choose(semantics: WorldSemantics, mode: Mode, query: Any, method: str = "auto",
           resume: Any = None, domain: Any = None) -> Strategy:
    """The strategy ``mode`` runs: for ``"auto"`` the first exact one of
    its list that applies, else the forced one.  A ``resume`` token
    checkpoints world enumeration: it forces enumeration, and any other
    forced method is refused.

    Every ``applies`` test reads only the query's syntax and the
    semantics row, so the plain ``"auto"`` pick (no ``resume``, no
    ``domain``) is kept on the query object itself, per ``(row, mode)``,
    beside the plan pin of :meth:`~repro.engine.PlanCache.execute`."""
    if method == "auto" and resume is None and domain is None:
        picks = getattr(query, "_strategy_picks", None)
        if picks is not None:
            strategy = picks.get((semantics, mode))
            if strategy is not None:
                return strategy
    strategy = forced_method(method)
    if strategy is None:
        if resume is None:
            for strategy in strategies(semantics, mode, domain):
                if strategy.exact and strategy.applies(semantics, query):
                    break
            else:
                strategy = ENUMERATION
            if domain is None:
                _remember(query, semantics, mode, strategy)
            return strategy
        return ENUMERATION
    if resume is not None and strategy is not ENUMERATION:
        raise InvalidRequestError(
            f"resume= checkpoints world enumeration; it is not defined for method={method!r}"
        )
    return strategy


def _remember(query: Any, semantics: WorldSemantics, mode: Mode, strategy: Strategy) -> None:
    """Keep ``choose``'s ``"auto"`` pick on a relational-algebra ``query``
    (dropped when it is pickled, like the plan pin)."""
    if not isinstance(query, RAExpression):
        return
    picks = getattr(query, "_strategy_picks", None)
    if picks is None:
        picks = {}
        try:
            object.__setattr__(query, "_strategy_picks", picks)
        except (AttributeError, TypeError):  # __slots__-restricted subclass
            return
    picks[(semantics, mode)] = strategy


BUDGET_POLICIES = ("degrade", "raise", "partial")


def budget_policy(policy: Any) -> str:
    """``policy`` if it names an ``on_budget`` policy, else :class:`InvalidRequestError`."""
    if policy not in BUDGET_POLICIES:
        raise InvalidRequestError(
            f"unknown on_budget policy {policy!r}; "
            "expected 'degrade', 'raise' or 'partial'"
        )
    return policy


def degrade(policy: str, error: BudgetExceeded, query: Any, mode: Mode, domain: Any,
            *options: Any) -> Tuple[Any, Optional[str], str]:
    """The degradation ladder of ``certain()``: answer soundly, or fail loudly.

    Returns ``(answer, ran, verdict)``, with ``answer`` ``None`` when the
    call must re-raise ``error``.  Runs outside the expired budget, on
    the first polynomial strategy that applies — exact naive evaluation
    (reachable when the budget died in a forced enumeration), else the
    CWA approximation — so the overrun is bounded.  With none,
    ``"degrade"`` re-raises and ``"partial"`` returns an *empty* sound
    subset: the prefix of the aborted world intersection is a superset
    of the certain answers.
    """
    session, expression = query.session, query.expression
    semantics, metrics = session._semantics, session._metrics
    resource = error.resource or "budget"
    if policy == "raise":
        metrics.count("degrade.raised")
        return None, None, f"budget exceeded ({resource}); on_budget='raise' — no fallback ran"
    with span("degrade.decide", resource=resource, policy=policy) as decision:
        for strategy in strategies(semantics, mode, domain):
            test = strategy.polynomial and strategy.applies(semantics, expression)
            if test:
                answer = strategy.run(query, mode, domain, *options)
                label = strategy.label
                if strategy.exact:
                    rung, quality = "exact", f"exact ({label} applies: {test.fragment})"
                else:
                    rung, quality = strategy.name, f"sound lower bound ({test.reason})"
                break
        else:
            if policy == "degrade":
                decision.set(rung="raised")
                metrics.count("degrade.raised")
                return None, None, (
                    f"budget exceeded ({resource}); no sound fallback exists for "
                    f"this query under {semantics.name} — raised"
                )
            if isinstance(expression, RAExpression):
                schema = expression.output_schema(query._require_database().schema)
            else:
                schema = expression.output_schema()
            answer = Relation.empty(schema)
            label = quality = "empty sound subset (no sound approximation exists)"
            rung = "empty_partial"
        decision.set(rung=rung)
    metrics.count("degrade." + rung)
    verdict = f"budget exceeded ({resource}); degraded to {quality}"
    if policy == "partial":
        answer = PartialResult(answer, verdict, resource=error.resource, token=error.resume_token)
    return answer, f"{label} (degraded)", verdict


def _degraded(policy: str, error: BudgetExceeded, query: Any, *options: Any) -> Any:
    answer, ran, verdict = degrade(policy, error, query, *options)
    query._resilience_verdict = verdict
    if answer is None:
        raise error
    query._ran = ran
    return answer


#: ``certain()``'s budget-expiry hook for each ``on_budget`` policy.
_ON_EXPIRY = {policy: functools.partial(_degraded, policy) for policy in BUDGET_POLICIES}


def valuations(expression: Any, database: Database, domain: Any = None,
               extra_constants: Any = None) -> str:
    """`` over <valuations>``: what :data:`ENUMERATION`'s certain answers
    of ``expression`` range over, for ``explain()``."""
    resolved = enumeration_domain(expression, database, domain, extra_constants)
    return f" over {valuation_space(expression, database, resolved).describe()}"


def explain(semantics: WorldSemantics, expression: Any, ran: Optional[str] = None,
            database: Any = None) -> str:
    """The ``certain():`` line of ``explain()``: the strategy ``certain()``
    ran (before any run: the one ``"auto"`` picks, with the valuations its
    enumeration would run over the default domain of ``database``), with
    the naive-evaluation verdict."""
    verdict = naive_verdict(expression, semantics)
    if ran is None:
        strategy = choose(semantics, CERTAIN, expression)
        ran = strategy.label
        if strategy is ENUMERATION and database is not None:
            ran += valuations(expression, database)
    return f"certain(): {ran} — {verdict.reason} (fragment: {verdict.fragment})"


def walk(query: Any, mode: Mode, method: str, domain: Any, extra_constants: Any,
         max_extra_facts: int, budget: Any, on_budget: Optional[str], resume: Any,
         strategy: Optional[Strategy] = None) -> Any:
    """``mode``'s answer to ``query``: pick the strategy (unless the caller
    chose ``strategy``) and run it as one session run under ``budget``.

    Only ``certain()`` degrades on expiry (by ``on_budget``), takes a
    ``resume`` token and records what it ran for ``explain()``.  A Boolean
    answers a ``bool``, and its ``BudgetExceeded`` carries no token: a
    0-ary checkpoint has ``certain()``'s key and must not resume it.
    """
    semantics, expression = query.session._semantics, query.expression
    on_expiry = None
    if mode is CERTAIN:
        on_expiry = _ON_EXPIRY[query._policy(on_budget)]
        query._resilience_verdict = None
    if strategy is None:
        strategy = choose(semantics, mode, expression, method, resume, domain)
    if mode is CERTAIN:
        ran = strategy.label if method == "auto" else f"{strategy.label} (method={method!r})"
        if strategy is ENUMERATION:
            ran += valuations(expression, query._require_database(), domain, extra_constants)
        query._ran = ran
    try:
        answer = query._run(
            budget, on_expiry, strategy.run,
            query, mode, domain, extra_constants, max_extra_facts, resume,
        )
    except BudgetExceeded as error:
        if mode.boolean:
            error.resume_token = None
        raise
    return bool(answer) if mode.boolean else answer
