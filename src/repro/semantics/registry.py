"""The semantics registry: one row per semantics, and the one strategy list.

A semantics of incompleteness is one tuple (Section 5): the worlds
``[[D]]``, the information ordering ``⊑`` and the formula ``δ_D`` whose
complete models are ``[[D]]``.  Each row of :data:`SEMANTICS` carries it
whole — world enumerator, membership test, ordering, δ and the open-world
facts evaluation branches on — and every ``semantics=`` name in the
library is resolved by :func:`semantics_named`: this is the only module
that compares semantics names.

A :class:`~repro.session.Session` holds one row and hands it every
decision that depends on the semantics (world space, ``connect(model=)``
check, ``freeze(warm=)``, ``explain()`` lines and, on ``"prob"`` only,
``confidence()``/``condition_on()``).  Which strategy computes the
certain answers depends only on (query fragment, semantics) (eq. (4)),
so each semantics carries one ordered list of :class:`Strategy` rows —
``naive`` (exact when the fragment test applies), ``sound_cwa`` (a sound
subset; closed worlds and relational algebra only), ``lineage`` (exact
for generic relational algebra under closed worlds: validity of c-table
lineage, :mod:`repro.semantics.lineage`), ``enumeration`` (exact, not
polynomial) — and every reader walks it:
:meth:`WorldSemantics.choose` for the first exact strategy that applies
(``certain(method="auto")``, ``cursor(certain=True)``, ``explain()``),
:meth:`WorldSemantics.degrade` for the first polynomial one after a
budget expired.  Every world enumeration a session runs (``certain()``,
``possible()``, ``boolean()``) is the ``ENUMERATION`` row, which hands
the semantics row down.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..algebra.ast import RAExpression
from ..core.answers import (
    enumeration_domain, enumeration_strategy, naive_strategy, not_generic, valuation_space,
)
from ..core.naive_evaluation import Applicability, naive_verdict
from ..core.orderings import CWA_ORDERING, OWA_ORDERING, WCWA_ORDERING, InformationOrdering
from ..core.sound_evaluation import sound_certain_answers
from ..datamodel import Database, Relation
from ..logic.diagrams import delta_cwa, delta_owa, delta_wcwa
from ..logic.formulas import Formula
from ..obs.trace import span
from ..resilience import BudgetExceeded, InvalidRequestError, PartialResult
from .lineage import lineage_strategy
from .membership import in_cwa, in_owa, in_wcwa
from .worlds import check_world_options, cwa_worlds, owa_worlds, wcwa_worlds


class Strategy(NamedTuple):
    """One row of a strategy list: a way to compute certain answers.

    ``applies(semantics, query)`` is the verdict that the strategy's
    answer is sound — and, for an ``exact`` one, complete.
    ``run(semantics, query, database, evaluator, **options)`` computes it;
    enumeration reads the options (``domain``, ``workers``, ``resume``,
    ...), lineage ``domain``, ``extra_constants`` and the session's
    ``evaluate_ctable`` and ``kernel``.  A ``polynomial`` strategy may run
    after a budget expired.
    """

    name: str
    label: str
    exact: bool
    polynomial: bool
    applies: Callable[..., Applicability]
    run: Callable[..., Relation]


def _sound_verdict(semantics: "WorldSemantics", query: Any) -> Applicability:
    if isinstance(query, RAExpression):
        return Applicability(True, semantics.name, "RA", "polynomial CWA approximation")
    return Applicability(False, semantics.name, "FO", "relational algebra only")


NAIVE = Strategy(
    "naive", "naive evaluation", True, True,
    lambda semantics, query: naive_verdict(query, semantics),
    lambda semantics, query, database, evaluator, **_: naive_strategy(query, database, evaluator),
)
SOUND_CWA = Strategy(
    "sound_cwa", "sound CWA approximation", False, True, _sound_verdict,
    lambda semantics, query, database, evaluator, **_: sound_certain_answers(query, database),
)


def _lineage_verdict(semantics: "WorldSemantics", query: Any) -> Applicability:
    if not isinstance(query, RAExpression):
        return Applicability(False, semantics.name, "FO", "relational algebra only")
    reason = not_generic(query)
    if reason:
        return Applicability(False, semantics.name, "RA", reason)
    return Applicability(True, semantics.name, "RA", "generic: a valid lineage is a certain answer")


LINEAGE = Strategy(
    "lineage", "lineage validity", True, False, _lineage_verdict,
    lambda semantics, query, database, evaluator, domain=None, extra_constants=None,
    evaluate_ctable=None, kernel=None, **_: lineage_strategy(
        query, database, domain, extra_constants, evaluate_ctable, kernel
    ),
)
ENUMERATION = Strategy(
    "enumeration", "world enumeration", True, False,
    lambda semantics, query: Applicability(True, semantics.name, "any", "every world"),
    lambda semantics, query, database, evaluator, **options: enumeration_strategy(
        query, database, evaluator, semantics=semantics, **options
    ),
)
_OPEN = (NAIVE, ENUMERATION)
_CLOSED = (NAIVE, SOUND_CWA, LINEAGE, ENUMERATION)
#: The strategies that answer over the unrestricted domain: a call that
#: restricts the valuations to a ``domain`` skips them (with ``domain=[]``
#: a database with nulls has no world at all).
_DOMAIN_BLIND = (NAIVE, SOUND_CWA)
#: The strategies ``certain(method=)`` may force.
METHODS = {"naive": NAIVE, "enumeration": ENUMERATION}


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


class WorldSemantics:
    """A possible-world semantics: its representation system and strategies.

    ``enumerator`` is the world enumerator behind :meth:`worlds`,
    ``member(D, D')`` decides ``D' ∈ [[D]]`` for a complete ``D'``,
    ``ordering`` is ``⊑`` and ``delta(D)`` is ``δ_D``.  ``grows``: worlds
    may hold facts beyond ``v(D)`` (OWA, weak CWA), so naive evaluation is
    guaranteed for UCQs only and the sound CWA approximation is off the
    list; ``new_values``: those facts may hold values outside the world's
    active domain (OWA).  ``space`` is what
    :attr:`~repro.session.Session.world_semantics` reports.
    """

    def __init__(
        self, name: str, enumerator: Callable[..., Iterator[Database]],
        member: Callable[[Database, Database], bool], ordering: InformationOrdering,
        delta: Callable[[Database], Formula], *, grows: bool = False,
        new_values: bool = False, space: Optional[str] = None,
    ) -> None:
        self.name = name
        self.space = space or name
        self.enumerator = enumerator
        self.member = member
        self.ordering = ordering
        self.delta = delta
        self.grows = grows
        self.new_values = new_values
        #: The strategy list, cheapest first.
        self.strategies = _OPEN if grows else _CLOSED

    def worlds(
        self,
        database: Database,
        domain: Optional[Any] = None,
        extra_constants: Optional[int] = None,
        max_extra_facts: int = 1,
        *,
        interchangeable: Any = (),
    ) -> Iterator[Database]:
        """The finite approximation of ``[[database]]``
        (:mod:`repro.semantics.worlds`); the options are checked before
        the first world."""
        check_world_options(extra_constants, max_extra_facts)
        if self.grows:
            return self.enumerator(
                database, domain, extra_constants, max_extra_facts, interchangeable=interchangeable
            )
        return self.enumerator(database, domain, extra_constants, interchangeable=interchangeable)

    def choose(
        self, query: Any, method: str = "auto", resume: Any = None, domain: Any = None
    ) -> Strategy:
        """The strategy ``certain(method=)`` runs: for ``"auto"`` the first
        exact one that applies, else the forced one.  A ``resume`` token
        checkpoints world enumeration: it forces enumeration, and any
        other forced method is refused.  Naive evaluation is exact over
        the unrestricted domain only, so ``"auto"`` skips it when the
        call restricts the valuations to a ``domain``."""
        strategy = forced_method(method)
        if strategy is None:
            if resume is None:
                for strategy in self.strategies:
                    if domain is not None and strategy in _DOMAIN_BLIND:
                        continue
                    if strategy.exact and strategy.applies(self, query):
                        return strategy
            return ENUMERATION
        if resume is not None and strategy is not ENUMERATION:
            raise InvalidRequestError(
                f"resume= checkpoints world enumeration; it is not defined for method={method!r}"
            )
        return strategy

    def degrade(
        self, query: Any, error: BudgetExceeded, policy: str, domain: Any = None
    ) -> Any:
        """The degradation ladder of ``query.certain()``: answer soundly, or fail loudly.

        Runs outside the expired budget, on the first polynomial strategy
        that applies — exact naive evaluation (reachable when the budget
        died in a forced enumeration), else the CWA approximation — so the
        overrun is bounded.  Both answer over the unrestricted domain, so
        a call that passed ``domain`` skips them, as :meth:`choose` does.
        With none, ``"degrade"`` re-raises and ``"partial"`` returns an
        *empty* sound subset: the prefix of the aborted world intersection
        is a superset of the certain answers.
        """
        metrics = query.session._metrics
        resource = error.resource or "budget"
        if policy == "raise":
            metrics.count("degrade.raised")
            query._resilience_verdict = (
                f"budget exceeded ({resource}); on_budget='raise' — no fallback ran"
            )
            raise error
        expression, database = query.expression, query._require_database()
        with span("degrade.decide", resource=resource, policy=policy) as decision:
            for strategy in self.strategies:
                if domain is not None and strategy in _DOMAIN_BLIND:
                    continue
                test = strategy.polynomial and strategy.applies(self, expression)
                if test:
                    relation = strategy.run(self, expression, database, query.session._evaluate)
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
                    query._resilience_verdict = (
                        f"budget exceeded ({resource}); no sound fallback exists for "
                        f"this query under {self.name} — raised"
                    )
                    raise error
                if isinstance(expression, RAExpression):
                    schema = expression.output_schema(database.schema)
                else:
                    schema = expression.output_schema()
                relation = Relation.empty(schema)
                label = quality = "empty sound subset (no sound approximation exists)"
                rung = "empty_partial"
            decision.set(rung=rung)
        metrics.count("degrade." + rung)
        query._resilience_verdict = verdict = f"budget exceeded ({resource}); degraded to {quality}"
        query._ran = f"{label} (degraded)"
        if policy == "partial":
            return PartialResult(
                relation, verdict, resource=error.resource, token=error.resume_token
            )
        return relation

    def check_model(self, model: Any) -> None:
        """Refuse a ``connect(model=)`` this semantics cannot use."""
        if model is not None:
            raise InvalidRequestError(
                f'model= is only meaningful with semantics="prob", not {self.name!r}'
            )

    def warm(self, query: Any) -> None:
        """Run ``query`` once, so ``freeze()`` caches what serving reads."""
        query.certain()

    def valuations(
        self,
        expression: Any,
        database: Any,
        domain: Optional[Any] = None,
        extra_constants: Optional[int] = None,
    ) -> str:
        """`` over <valuations>``: what :data:`ENUMERATION`'s certain answers
        of ``expression`` range over, for ``explain()``."""
        resolved = enumeration_domain(expression, database, domain, extra_constants)
        return f" over {valuation_space(expression, database, resolved).describe()}"

    def explain(
        self, expression: Any, model: Any, ran: Optional[str] = None, database: Any = None
    ) -> List[str]:
        """The strategy ``certain()`` ran (before any run: the one ``"auto"``
        picks, with the valuations its enumeration would run over the
        default domain of ``database``), with the naive-evaluation verdict."""
        verdict = naive_verdict(expression, self)
        if ran is None:
            strategy = self.choose(expression)
            ran = strategy.label
            if strategy is ENUMERATION and database is not None:
                ran += self.valuations(expression, database)
        return [f"certain(): {ran} — {verdict.reason} (fragment: {verdict.fragment})"]

    def condition_on(self, query: Any, constraint: Any) -> Any:
        self._refuse("condition_on()")

    def confidence(self, query: Any, *args: Any) -> Any:
        self._refuse("confidence()")

    def _refuse(self, what: str) -> None:
        raise InvalidRequestError(
            f"{what} needs a probabilistic session: "
            "connect(semantics='prob', model=ProbabilityModel(...))"
        )


Scored = List[Tuple[Tuple[Any, ...], Any]]


class ProbSemantics(WorldSemantics):
    """``"prob"``: a probability measure over the CWA worlds (Koch–Olteanu).

    A pc-table's worlds are the valuations of its nulls, so ``certain()``,
    ``possible()`` and ``boolean()`` answer as under CWA; ``confidence()``
    adds the measure.
    """

    def check_model(self, model: Any) -> None:
        from ..prob import ProbabilityModel

        if model is None:
            raise InvalidRequestError(
                'semantics="prob" needs a probability model: '
                "connect(semantics='prob', model=ProbabilityModel(...))"
            )
        if not isinstance(model, ProbabilityModel):
            raise TypeError(f"model must be a ProbabilityModel, got {type(model).__name__}")

    def warm(self, query: Any) -> None:
        """Run ``confidence()`` once before the session freezes.

        Serving (``Session.freeze(warm=)``, ``Server(warm=)``) then reads
        the lineage plans, the kernel's confidence memo, and the
        per-instance c-table caches this builds: the lifted tables and
        supports map on the database, and the scan snapshots, selection
        indexes and join build sides on the plan (see
        ``docs/engine.md``, "Per-instance caches").
        """
        query.confidence()

    def explain(
        self, expression: Any, model: Any, ran: Optional[str] = None, database: Any = None
    ) -> List[str]:
        shape = model.stats()
        return super().explain(expression, model, ran, database) + [
            "confidence(): exact decomposition over the c-table lineage "
            f"({shape['nulls']} modeled nulls, {shape['groups']} independent "
            f"groups, {shape['blocks']} exclusive blocks); budget overruns "
            "degrade to a Monte Carlo ConfidenceInterval"
        ]

    @staticmethod
    def _require_algebra(query: Any, what: str) -> None:
        if not isinstance(query.expression, RAExpression):
            raise InvalidRequestError(
                f"{what} requires a relational-algebra query; the c-table "
                "engine supplies the lineage conditions"
            )

    def condition_on(self, query: Any, constraint: Any) -> Any:
        from ..datamodel.conditional import And, Condition

        self._require_algebra(query, "condition_on()")
        if not isinstance(constraint, Condition):
            raise InvalidRequestError(
                "condition_on() expects a Condition over the model's nulls, "
                f"got {type(constraint).__name__}"
            )
        clone = type(query)(query.session, query.expression, query._database)
        if query._prob_constraint is not None:
            constraint = And((query._prob_constraint, constraint)).simplify()
        clone._prob_constraint = constraint
        return clone

    def confidence(
        self, query: Any, limit: Optional[int], min_p: float, budget: Any,
        on_budget: Optional[str], samples: int, seed: Optional[int],
    ) -> Scored:
        from ..prob.conditioning import Conditioner
        from ..prob.confidence import confidence as exact_confidence
        from ..prob.lineage import prob_lineage
        from ..prob.montecarlo import monte_carlo_confidence

        self._require_algebra(query, "confidence()")
        if limit is not None and limit < 1:
            raise InvalidRequestError(f"limit must be >= 1, got {limit!r}")
        if samples < 1:
            raise InvalidRequestError(f"samples must be >= 1, got {samples!r}")
        policy = query._policy(on_budget)
        session = query.session
        model, kernel = session.model, session.kernel
        # What run() got to before a budget overrun: estimate() samples the
        # lineages it did not score exactly.
        progress: Dict[str, Any] = {}

        def run() -> Scored:
            candidates, constraint = prob_lineage(
                query.expression,
                query._require_database(),
                model,
                kernel,
                session.evaluate_ctable,
                query._prob_constraint,
            )
            scored: Scored = []
            progress.update(candidates=candidates, constraint=constraint, scored=scored)
            if constraint is not None:
                score = Conditioner(constraint, model, kernel).probability
            else:
                score = lambda lineage: exact_confidence(lineage, model, kernel)  # noqa: E731
            for values, lineage in candidates:
                scored.append((values, score(lineage)))
            return _rank(scored, limit, min_p)

        def estimate(error: BudgetExceeded) -> Scored:
            resource = error.resource or "budget"
            candidates = progress.get("candidates")
            if policy == "raise":
                query._resilience_verdict = (
                    f"budget exceeded ({resource}); on_budget='raise' — no estimator ran"
                )
                raise error
            if candidates is None:
                # Lineage construction itself blew the budget: there are
                # no conditions to sample.
                query._resilience_verdict = (
                    f"budget exceeded ({resource}) during c-table lineage "
                    "construction — nothing to estimate; raised"
                )
                raise error
            scored = list(progress["scored"])
            query._resilience_verdict = verdict = (
                f"budget exceeded ({resource}); "
                f"{len(candidates) - len(scored)} of {len(candidates)} "
                f"answers degraded to Monte Carlo ({samples} samples)"
            )
            session._metrics.count("degrade.monte_carlo")
            # Runs outside the expired budget: a fixed sample count is
            # polynomial, the overrun bounded.
            for index in range(len(scored), len(candidates)):
                values, lineage = candidates[index]
                scored.append((values, monte_carlo_confidence(
                    lineage,
                    model,
                    samples=samples,
                    seed=None if seed is None else seed + index,
                    given=progress["constraint"],
                    verdict=verdict,
                    resource=error.resource,
                )))
            return _rank(scored, limit, min_p)

        return query._run(run, budget, estimate)


def _rank(scored: Scored, limit: Optional[int], min_p: float) -> Scored:
    # Zero-probability derivations (a lineage the model rules out) are not
    # answers in any retained world; they never surface.
    kept = [(values, p) for values, p in scored if float(p) > 0.0 and float(p) >= min_p]
    kept.sort(key=lambda item: (-float(item[1]), tuple(str(v) for v in item[0])))
    return kept if limit is None else kept[:limit]


#: Semantics name -> the row a session holds.  Weak CWA worlds sit
#: between the CWA and the OWA ones: they grow, so the CWA-only
#: ``RA_cwa`` guarantee does not transfer.  ``"prob"`` weighs the CWA worlds.
SEMANTICS: Dict[str, WorldSemantics] = {
    "owa": WorldSemantics(
        "owa", owa_worlds, in_owa, OWA_ORDERING, delta_owa, grows=True, new_values=True
    ),
    "cwa": WorldSemantics("cwa", cwa_worlds, in_cwa, CWA_ORDERING, delta_cwa),
    "wcwa": WorldSemantics("wcwa", wcwa_worlds, in_wcwa, WCWA_ORDERING, delta_wcwa, grows=True),
    "prob": ProbSemantics("prob", cwa_worlds, in_cwa, CWA_ORDERING, delta_cwa, space="cwa"),
}


def semantics_named(name: Any) -> WorldSemantics:
    """The row registered as ``name`` (a row passes through as it is);
    anything else raises :class:`~repro.resilience.InvalidRequestError`."""
    if isinstance(name, WorldSemantics):
        return name
    semantics = SEMANTICS.get(name) if isinstance(name, str) else None
    if semantics is None:
        raise InvalidRequestError(
            f"unknown semantics {name!r}; expected one of {tuple(SEMANTICS)}"
        )
    return semantics
