"""The semantics registry: one row per semantics.

A semantics of incompleteness is one tuple (Section 5): the worlds
``[[D]]``, the information ordering ``⊑`` and the formula ``δ_D`` whose
complete models are ``[[D]]``.  Each row of :data:`SEMANTICS` carries it
whole — world enumerator, membership test, ordering, δ and the open-world
facts evaluation branches on — and every ``semantics=`` name in the
library is resolved by :func:`semantics_named`: this is the only module
that compares semantics names.

A :class:`~repro.session.Session` holds one row and hands it every
decision that depends on what the semantics *is* (world space,
``connect(model=)`` check, ``freeze(warm=)``, its own ``explain()`` lines
and, on ``"prob"`` only, ``confidence()``/``condition_on()``).  How
answers are computed — the strategy rows and the walk every answering
mode takes — is :mod:`repro.semantics.strategies`, which reads a row's
``grows``.  This module sits below :mod:`repro.core` and imports nothing
from it, so every module of the library can import it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..algebra.ast import RAExpression
from ..datamodel import Database
from ..logic.diagrams import delta_cwa, delta_owa, delta_wcwa
from ..logic.formulas import Formula
from ..resilience import BudgetExceeded, InvalidRequestError
from .membership import (
    CWA_ORDERING, OWA_ORDERING, WCWA_ORDERING, InformationOrdering, in_cwa, in_owa, in_wcwa,
)
from .worlds import check_world_options, cwa_worlds, owa_worlds, wcwa_worlds


class WorldSemantics:
    """A possible-world semantics: its representation system.

    ``enumerator`` is the world enumerator behind :meth:`worlds`,
    ``member(D, D')`` decides ``D' ∈ [[D]]`` for a complete ``D'``,
    ``ordering`` is ``⊑`` and ``delta(D)`` is ``δ_D``.  ``grows``: worlds
    may hold facts beyond ``v(D)`` (OWA, weak CWA), so naive evaluation is
    guaranteed for UCQs only and the sound CWA approximation does not
    apply; ``new_values``: those facts may hold values outside the world's
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

    def check_model(self, model: Any) -> None:
        """Refuse a ``connect(model=)`` this semantics cannot use."""
        if model is not None:
            raise InvalidRequestError(
                f'model= is only meaningful with semantics="prob", not {self.name!r}'
            )

    def warm(self, query: Any) -> None:
        """Run ``query`` once, so ``freeze()`` caches what serving reads."""
        query.certain()

    def explain(self, model: Any) -> List[str]:
        """The ``explain()`` lines of this semantics beyond the strategy
        ``certain()`` ran (none: only ``"prob"`` adds one)."""
        return []

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

    def explain(self, model: Any) -> List[str]:
        shape = model.stats()
        return [
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

        return query._run(budget, estimate, run)


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
