"""Exact confidence computation by decomposition over the condition DAG.

``confidence(condition, model)`` computes ``P(condition holds)`` under a
:class:`~repro.prob.model.ProbabilityModel` by structural decomposition,
the Koch–Olteanu evaluation strategy specialised to the repo's interned
condition kernel:

1. **Atoms** read straight off the model: ``P(x = c)`` is the marginal,
   ``P(x = y)`` sums matching outcomes (same group) or matching marginals
   (independent groups).
2. **Independent splits** — when the operands of an ``And``/``Or``
   partition into classes touching disjoint model groups (checked with
   the kernel's cached ``nulls()``), the probability factorizes:
   ``P(⋀) = ∏ P(class)`` and ``P(⋁) = 1 − ∏ (1 − P(class))``.
3. **Exclusive OR** — when every pair of disjuncts pins some shared
   block to incompatible alternatives, the disjuncts are mutually
   exclusive and ``P(⋁) = Σ P(disjunct)``.
4. **Shannon expansion** otherwise: pick the most-shared null, condition
   on each outcome of its group (``P = Σ_o P(o) · P(cond | o)``), and
   recurse on the substituted-and-reinterned residuals.

Results are memoized per ``(kernel, model)`` with identity keys — the
same discipline (and the same ``memo_limit`` bound) as the kernel's
and/or memos; on a frozen kernel the memo is per-call so shared state is
never mutated.  A cooperative :func:`~repro.resilience.active_budget`
check runs on every Shannon branch, so a huge lineage raises
:class:`~repro.resilience.BudgetExceeded` instead of hanging — callers
degrade to the Monte Carlo estimator in :mod:`repro.prob.montecarlo`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datamodel.condition_kernel import ConditionKernel
from ..datamodel.conditional import (
    And,
    Condition,
    Eq,
    FalseCondition,
    Not,
    Or,
    TrueCondition,
)
from ..datamodel.valuation import Valuation
from ..datamodel.values import Null, is_null
from ..obs import current_metrics, span
from ..resilience import InvalidRequestError, active_budget
from .model import ProbabilityModel

__all__ = ["ConfidenceStats", "brute_force_confidence", "confidence"]

#: Above this many disjuncts the pairwise exclusivity check (quadratic)
#: is skipped and the evaluator goes straight to Shannon expansion.
_EXCLUSIVE_CHECK_LIMIT = 64


class ConfidenceStats:
    """Decomposition counters for one :func:`confidence` call (diagnostics)."""

    __slots__ = (
        "atoms",
        "independent_ands",
        "independent_ors",
        "exclusive_ors",
        "shannon_expansions",
        "max_depth",
        "memo_hits",
    )

    def __init__(self) -> None:
        self.atoms = 0
        self.independent_ands = 0
        self.independent_ors = 0
        self.exclusive_ors = 0
        self.shannon_expansions = 0
        self.max_depth = 0
        self.memo_hits = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Evaluator:
    """One confidence computation: model + kernel + memo + ambient budget.

    ``memo`` is the writable table; ``base`` is an optional read-only
    layer underneath it — on a frozen kernel the memo warmed before
    ``freeze()`` is served through ``base`` while this call's results go
    to a private ``memo``, so shared state is never mutated.  Only a
    shared (kernel-owned) memo is trimmed to ``memo_limit``; a per-call
    memo dies with the call.
    """

    __slots__ = ("model", "kernel", "memo", "base", "shared", "state", "metrics", "stats")

    def __init__(
        self,
        model: ProbabilityModel,
        kernel: ConditionKernel,
        memo: Dict[int, Tuple[Condition, float]],
        base: Optional[Dict[int, Tuple[Condition, float]]] = None,
        shared: bool = False,
    ) -> None:
        self.model = model
        self.kernel = kernel
        self.memo = memo
        self.base = base
        self.shared = shared
        self.state = active_budget()
        self.metrics = current_metrics()
        self.stats = ConfidenceStats()

    def _count(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.count(f"prob.decompositions.{kind}")

    # ------------------------------------------------------------------
    # recursion
    # ------------------------------------------------------------------
    def probability(self, condition: Condition, depth: int = 0) -> float:
        if isinstance(condition, TrueCondition):
            return 1.0
        if isinstance(condition, FalseCondition):
            return 0.0
        entry = self.memo.get(id(condition))
        if entry is not None and entry[0] is condition:
            self.stats.memo_hits += 1
            return entry[1]
        if self.base is not None:
            entry = self.base.get(id(condition))
            if entry is not None and entry[0] is condition:
                self.stats.memo_hits += 1
                return entry[1]
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth

        if isinstance(condition, Eq):
            result = self._atom(condition)
        elif isinstance(condition, Not):
            result = 1.0 - self.probability(condition.operand, depth)
        elif isinstance(condition, And):
            result = self._conjunction(condition, depth)
        elif isinstance(condition, Or):
            result = self._disjunction(condition, depth)
        else:
            raise InvalidRequestError(
                f"confidence(): unsupported condition node {type(condition).__name__}"
            )

        self.memo[id(condition)] = (condition, result)
        if self.shared:
            self.kernel._trim_memo(self.memo)
        return result

    def _atom(self, atom: Eq) -> float:
        self.stats.atoms += 1
        self._count("atom")
        left, right = atom.left, atom.right
        model = self.model
        if is_null(left) and is_null(right):
            if left == right:
                return 1.0
            if model.representative(left) == model.representative(right):
                # Same correlation block: sum the alternatives agreeing
                # on the two positions.
                return sum(
                    p
                    for assignment, p in model.outcomes(left)
                    if assignment[left] == assignment[right]
                )
            # Independent groups: collision probability of the marginals.
            m_left = model.marginal(left)
            m_right = model.marginal(right)
            if len(m_right) < len(m_left):
                m_left, m_right = m_right, m_left
            return sum(p * m_right.get(v, 0.0) for v, p in m_left.items())
        if is_null(left):
            return model.marginal(left).get(right, 0.0)
        if is_null(right):
            return model.marginal(right).get(left, 0.0)
        return 1.0 if left == right else 0.0

    # ------------------------------------------------------------------
    # independence partition
    # ------------------------------------------------------------------
    def _partition(
        self, operands: Sequence[Condition]
    ) -> List[List[Condition]]:
        """Group operands into classes touching disjoint model groups.

        Union-find over group representatives: two operands land in the
        same class iff they (transitively) share a correlation group.
        Ground operands (no nulls) are their own class — they contribute
        an exact 0/1 factor.
        """
        model = self.model
        kernel = self.kernel
        parent: Dict[Any, Any] = {}

        def find(x: Any) -> Any:
            while parent[x] is not x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: Any, b: Any) -> None:
            ra, rb = find(a), find(b)
            if ra is not rb:
                parent[rb] = ra

        keys: List[Any] = []
        for index, operand in enumerate(operands):
            reps = {model.representative(n) for n in kernel.nulls(operand)}
            if not reps:
                key: Any = ("ground", index)
                parent[key] = key
                keys.append(key)
                continue
            anchor = None
            for rep in reps:
                if rep not in parent:
                    parent[rep] = rep
                if anchor is None:
                    anchor = rep
                else:
                    union(anchor, rep)
            keys.append(anchor)
        classes: Dict[Any, List[Condition]] = {}
        for operand, key in zip(operands, keys):
            classes.setdefault(find(key), []).append(operand)
        return list(classes.values())

    def _conjunction(self, condition: And, depth: int) -> float:
        classes = self._partition(condition.operands)
        if len(classes) > 1:
            self.stats.independent_ands += 1
            self._count("independent_and")
            result = 1.0
            for group in classes:
                factor = self.probability(self._recombine(And, group), depth)
                if factor == 0.0:
                    return 0.0
                result *= factor
            return result
        return self._shannon(condition, condition.operands, depth)

    def _disjunction(self, condition: Or, depth: int) -> float:
        classes = self._partition(condition.operands)
        if len(classes) > 1:
            self.stats.independent_ors += 1
            self._count("independent_or")
            result = 1.0
            for group in classes:
                result *= 1.0 - self.probability(self._recombine(Or, group), depth)
                if result == 0.0:
                    return 1.0
            return 1.0 - result
        if len(condition.operands) <= _EXCLUSIVE_CHECK_LIMIT and self._exclusive(
            condition.operands
        ):
            self.stats.exclusive_ors += 1
            self._count("exclusive_or")
            return min(
                1.0, sum(self.probability(op, depth) for op in condition.operands)
            )
        return self._shannon(condition, condition.operands, depth)

    def _recombine(self, cls: type, group: List[Condition]) -> Condition:
        if len(group) == 1:
            return group[0]
        if cls is And:
            return self.kernel.conjunction(group)
        return self.kernel.disjunction(group)

    # ------------------------------------------------------------------
    # exclusive-OR detection from block structure
    # ------------------------------------------------------------------
    @staticmethod
    def _pinning(operand: Condition) -> Optional[Dict[Null, Any]]:
        """``{null: constant}`` forced by top-level positive equalities.

        Conservative: returns ``None`` when the operand's truth is not
        visibly conjoined with null-to-constant pins (a ``None`` simply
        disables the exclusivity shortcut for that operand).
        """
        atoms: Tuple[Condition, ...]
        if isinstance(operand, Eq):
            atoms = (operand,)
        elif isinstance(operand, And):
            atoms = operand.operands
        else:
            return None
        pins: Dict[Null, Any] = {}
        for atom in atoms:
            if not isinstance(atom, Eq):
                continue
            left, right = atom.left, atom.right
            if is_null(left) and not is_null(right):
                null, value = left, right
            elif is_null(right) and not is_null(left):
                null, value = right, left
            else:
                continue
            if null in pins and pins[null] != value:
                return {}  # internally contradictory; never true
            pins[null] = value
        return pins or None

    def _pair_exclusive(
        self, pins_a: Dict[Null, Any], pins_b: Dict[Null, Any]
    ) -> bool:
        model = self.model
        # Direct conflict on a shared null.
        for null, value in pins_a.items():
            other = pins_b.get(null)
            if other is not None and other != value:
                return True
        # Block-level conflict: the merged pins on some shared group
        # extend no alternative of that group.
        shared_reps = {
            model.representative(n) for n in pins_a
        } & {model.representative(n) for n in pins_b}
        for rep in shared_reps:
            group = model.group(rep)
            merged = {}
            for pins in (pins_a, pins_b):
                for null, value in pins.items():
                    if null in group:
                        merged[null] = value
            consistent = any(
                all(assignment[null] == value for null, value in merged.items())
                for assignment, _ in model.outcomes(rep)
            )
            if not consistent:
                return True
        return False

    def _exclusive(self, operands: Sequence[Condition]) -> bool:
        pinnings = []
        for operand in operands:
            pins = self._pinning(operand)
            if pins is None:
                return False
            pinnings.append(pins)
        for i in range(len(pinnings)):
            for j in range(i + 1, len(pinnings)):
                if not self._pair_exclusive(pinnings[i], pinnings[j]):
                    return False
        return True

    # ------------------------------------------------------------------
    # Shannon expansion
    # ------------------------------------------------------------------
    def _choose_null(self, operands: Sequence[Condition]) -> Null:
        counts: Dict[Null, int] = {}
        for operand in operands:
            for null in self.kernel.nulls(operand):
                counts[null] = counts.get(null, 0) + 1
        # The most-shared null unlinks the most operands per expansion;
        # name-ordered tie-break keeps the expansion deterministic.
        return min(counts, key=lambda n: (-counts[n], n.name))

    def _shannon(
        self, condition: Condition, operands: Sequence[Condition], depth: int
    ) -> float:
        self.stats.shannon_expansions += 1
        self._count("shannon")
        pivot = self._choose_null(operands)
        state = self.state
        total = 0.0
        for assignment, p in self.model.outcomes(pivot):
            if state is not None:
                state.tick_world()
            residual = self.kernel.intern(condition.substitute(Valuation(assignment)))
            total += p * self.probability(residual, depth + 1)
        return total


def confidence(
    condition: Condition,
    model: ProbabilityModel,
    kernel: Optional[ConditionKernel] = None,
    memo: Optional[Dict[int, Tuple[Condition, float]]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> float:
    """The exact probability that ``condition`` holds under ``model``.

    Every null of ``condition`` must be covered by the model
    (:class:`~repro.resilience.InvalidRequestError` otherwise).  ``memo``
    overrides the memo table (used for per-call memoization on frozen
    kernels); by default the kernel's shared per-model memo is used when
    the kernel is mutable.  Without ``kernel`` the call builds a private
    one, so nothing is memoized across calls.  When ``stats`` is given, the decomposition
    counters of this call are added into it.

    Raises :class:`~repro.resilience.BudgetExceeded` when the ambient
    budget runs out mid-expansion; callers degrade to
    :func:`repro.prob.montecarlo.monte_carlo_confidence`.
    """
    kernel = kernel if kernel is not None else ConditionKernel()
    condition = kernel.intern(condition)
    model.require(kernel.nulls(condition))
    base: Optional[Dict[int, Tuple[Condition, float]]] = None
    shared = False
    if memo is None:
        memo = kernel.confidence_memo(model)
        if memo is None:
            # Frozen kernel: read the memo warmed before freeze() (if
            # any) and memoize this call's work privately.
            base = kernel.frozen_confidence_memo(model)
            memo = {}
        else:
            shared = True
    evaluator = _Evaluator(model, kernel, memo, base=base, shared=shared)
    with span("prob.confidence", nulls=len(kernel.nulls(condition))) as sp:
        result = evaluator.probability(condition)
        counters = evaluator.stats
        sp.set(
            probability=result,
            atoms=counters.atoms,
            memo_hits=counters.memo_hits,
        )
        if counters.shannon_expansions:
            with span(
                "prob.shannon",
                expansions=counters.shannon_expansions,
                depth=counters.max_depth,
                memo_hits=counters.memo_hits,
            ):
                pass
    if stats is not None:
        for name, value in counters.as_dict().items():
            stats[name] = stats.get(name, 0) + value
    # Floating error from long products can leave dust outside [0, 1].
    return min(1.0, max(0.0, result))


def brute_force_confidence(condition: Condition, model: ProbabilityModel) -> float:
    """Oracle: ``P(condition)`` by enumerating every joint outcome.

    Exponential in the number of model groups — test/benchmark baseline
    only.
    """
    total = 0.0
    for assignment, p in model.joint_outcomes(model.nulls()):
        if condition.evaluate(Valuation(assignment)):
            total += p
    return total
