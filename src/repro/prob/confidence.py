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

The decomposer is one recursion with its value algebra as a parameter
(the K-database idea: one evaluation, the semiring varies).  Besides
probability it runs Boolean truth over a finite domain:
:class:`Validity` decides whether a condition holds under every
valuation of its nulls and returns a falsifying valuation when it does
not — the check behind certain answers from c-table lineage
(:mod:`repro.semantics.lineage`).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

__all__ = ["ConfidenceStats", "Validity", "brute_force_confidence", "confidence"]

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


class _Decomposer:
    """One decomposition: a value algebra + kernel + memo + ambient budget.

    The recursion — memo lookups, independent AND/OR splits over the
    algebra's groups, Shannon expansion on the most-shared null — is the
    same for every algebra; what a node is *worth* is the algebra's:
    :class:`_Probability` (``+``/``×`` over a model, :func:`confidence`)
    or :class:`_FiniteDomain` (which truth values a condition takes over
    a finite domain, :class:`Validity`).

    ``memo`` is the writable table; ``base`` is an optional read-only
    layer underneath it — on a frozen kernel the memo warmed before
    ``freeze()`` is served through ``base`` while this call's results go
    to a private ``memo``, so shared state is never mutated.  Only a
    shared (kernel-owned) memo is trimmed to ``memo_limit``; a per-call
    memo dies with the call.
    """

    __slots__ = ("algebra", "kernel", "memo", "base", "shared", "state", "metrics", "stats")

    def __init__(
        self,
        algebra: Any,
        kernel: ConditionKernel,
        memo: Dict[int, Tuple[Condition, Any]],
        base: Optional[Dict[int, Tuple[Condition, Any]]] = None,
        shared: bool = False,
    ) -> None:
        self.algebra = algebra
        self.kernel = kernel
        self.memo = memo
        self.base = base
        self.shared = shared
        self.state = active_budget()
        self.metrics = current_metrics()
        self.stats = ConfidenceStats()

    def _count(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.count(self.algebra.counter + kind)

    # ------------------------------------------------------------------
    # recursion
    # ------------------------------------------------------------------
    def value(self, condition: Condition, depth: int = 0) -> Any:
        algebra = self.algebra
        if isinstance(condition, TrueCondition):
            return algebra.one
        if isinstance(condition, FalseCondition):
            return algebra.zero
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
            self.stats.atoms += 1
            self._count("atom")
            result = algebra.atom(condition)
        elif isinstance(condition, Not):
            result = algebra.negate(self.value(condition.operand, depth))
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

    # ------------------------------------------------------------------
    # independence partition
    # ------------------------------------------------------------------
    def _partition(
        self, operands: Sequence[Condition]
    ) -> List[List[Condition]]:
        """Group operands into classes touching disjoint algebra groups.

        Union-find over group representatives: two operands land in the
        same class iff they (transitively) share a group (a model's
        correlation group; a null on its own over a finite domain).
        Ground operands (no nulls) are their own class — they contribute
        an exact factor.
        """
        representative = self.algebra.representative
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
            reps = {representative(n) for n in kernel.nulls(operand)}
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

    def _conjunction(self, condition: And, depth: int) -> Any:
        classes = self._partition(condition.operands)
        if len(classes) > 1:
            self.stats.independent_ands += 1
            self._count("independent_and")
            return self.algebra.product(
                self.value(self._recombine(And, group), depth) for group in classes
            )
        return self._shannon(condition, condition.operands, depth)

    def _disjunction(self, condition: Or, depth: int) -> Any:
        classes = self._partition(condition.operands)
        if len(classes) > 1:
            self.stats.independent_ors += 1
            self._count("independent_or")
            return self.algebra.coproduct(
                self.value(self._recombine(Or, group), depth) for group in classes
            )
        operands = condition.operands
        if len(operands) <= _EXCLUSIVE_CHECK_LIMIT and self.algebra.exclusive(operands):
            self.stats.exclusive_ors += 1
            self._count("exclusive_or")
            return self.algebra.exclusive_sum(self.value(op, depth) for op in operands)
        return self._shannon(condition, operands, depth)

    def _recombine(self, cls: type, group: List[Condition]) -> Condition:
        if len(group) == 1:
            return group[0]
        if cls is And:
            return self.kernel.conjunction(group)
        return self.kernel.disjunction(group)

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
    ) -> Any:
        self.stats.shannon_expansions += 1
        self._count("shannon")
        pivot = self._choose_null(operands)
        return self.algebra.expand(self._branches(condition, pivot, depth))

    def _branches(
        self, condition: Condition, pivot: Null, depth: int
    ) -> Iterator[Tuple[Dict[Null, Any], Any, Any]]:
        """``(assignment, weight, value of the residual)`` per branch of
        ``pivot``, each computed only when the algebra asks for it; every
        branch ticks the budget."""
        state, kernel = self.state, self.kernel
        for assignment, weight in self.algebra.branches(pivot, condition):
            if state is not None:
                state.tick_world()
            residual = kernel.intern(condition.substitute(Valuation(assignment)))
            yield assignment, weight, self.value(residual, depth + 1)


class _Probability:
    """The probability algebra over a :class:`ProbabilityModel`.

    Atoms read off the model; independent classes multiply (``P(⋀)``) or
    combine as ``1 − ∏ (1 − P)`` (``P(⋁)``); block-exclusive disjuncts
    add up; a Shannon step sums ``P(o) · P(cond | o)`` over the outcomes
    ``o`` of the pivot's group.
    """

    __slots__ = ("model",)
    one = 1.0
    zero = 0.0
    counter = "prob.decompositions."

    def __init__(self, model: ProbabilityModel) -> None:
        self.model = model

    def representative(self, null: Null) -> Any:
        return self.model.representative(null)

    def negate(self, value: float) -> float:
        return 1.0 - value

    @staticmethod
    def product(factors: Iterable[float]) -> float:
        result = 1.0
        for factor in factors:
            if factor == 0.0:
                return 0.0
            result *= factor
        return result

    @staticmethod
    def coproduct(values: Iterable[float]) -> float:
        result = 1.0
        for value in values:
            result *= 1.0 - value
            if result == 0.0:
                return 1.0
        return 1.0 - result

    @staticmethod
    def exclusive_sum(values: Iterable[float]) -> float:
        return min(1.0, sum(values))

    def branches(self, pivot: Null, condition: Condition) -> Iterable[Tuple[Dict[Null, Any], float]]:
        return self.model.outcomes(pivot)

    @staticmethod
    def expand(branches: Iterable[Tuple[Dict[Null, Any], float, float]]) -> float:
        total = 0.0
        for _assignment, p, value in branches:
            total += p * value
        return total

    def atom(self, atom: Eq) -> float:
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

    def exclusive(self, operands: Sequence[Condition]) -> bool:
        """Whether every pair of ``operands`` pins a shared block apart."""
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


#: A :class:`_FiniteDomain` value: a valuation under which the condition
#: holds and one under which it fails (``None`` where there is none).
Truths = Tuple[Optional[Dict[Null, Any]], Optional[Dict[Null, Any]]]


def _merged(left: Dict[Null, Any], right: Dict[Null, Any]) -> Dict[Null, Any]:
    return {**left, **right} if left else right


class _FiniteDomain:
    """The Boolean algebra of truth over a finite domain.

    A condition is worth the pair ``(holds, fails)``: a valuation of its
    nulls into the domain under which it is true, and one under which it
    is false (``None`` where none exists).  So it is *valid* iff ``fails``
    is ``None``, *satisfiable* iff ``holds`` is not, and ``fails`` is the
    falsifying valuation.  Every null is its own group (a valuation picks
    each independently).

    A Shannon step branches on the domain values the condition mentions
    plus one value it does not mention: for equality-only conditions
    those values are interchangeable (renaming one into another maps the
    domain onto itself and fixes the condition), so the representative
    decides for all of them.  A step stops once both a true and a false
    branch were found.
    """

    __slots__ = ("values", "constants", "branches_taken")
    one: Truths = ({}, None)
    zero: Truths = (None, {})
    counter = "lineage.decompositions."

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = tuple(values)
        self.constants: Dict[int, Tuple[Condition, FrozenSet[Any]]] = {}
        self.branches_taken = 0

    @staticmethod
    def representative(null: Null) -> Null:
        return null

    @staticmethod
    def negate(value: Truths) -> Truths:
        return value[1], value[0]

    @staticmethod
    def product(factors: Iterable[Truths]) -> Truths:
        holds: Optional[Dict[Null, Any]] = {}
        fails = None
        for factor_holds, factor_fails in factors:
            if factor_holds is None:
                return None, factor_fails
            holds = _merged(holds, factor_holds)
            if fails is None:
                fails = factor_fails
        return holds, fails

    @staticmethod
    def coproduct(values: Iterable[Truths]) -> Truths:
        holds = None
        fails: Optional[Dict[Null, Any]] = {}
        for value_holds, value_fails in values:
            if value_fails is None:
                return value_holds, None
            fails = _merged(fails, value_fails)
            if holds is None:
                holds = value_holds
        return holds, fails

    @staticmethod
    def exclusive(operands: Sequence[Condition]) -> bool:
        # Exclusive disjuncts give "can hold", not "can fail": no shortcut.
        return False

    def _mentioned(self, condition: Condition) -> FrozenSet[Any]:
        """The constants ``condition`` mentions (memoized per node)."""
        entry = self.constants.get(id(condition))
        if entry is not None and entry[0] is condition:
            return entry[1]
        if isinstance(condition, Eq):
            found = frozenset(v for v in (condition.left, condition.right) if not is_null(v))
        elif isinstance(condition, Not):
            found = self._mentioned(condition.operand)
        elif isinstance(condition, (And, Or)):
            found = frozenset().union(*(self._mentioned(op) for op in condition.operands))
        else:
            found = frozenset()
        self.constants[id(condition)] = (condition, found)
        return found

    def branches(self, pivot: Null, condition: Condition) -> Iterator[Tuple[Dict[Null, Any], None]]:
        mentioned = self._mentioned(condition)
        taken: Set[Any] = set()
        rest = False
        for value in self.values:
            if value in mentioned:
                if value in taken:
                    continue  # equal to a value already branched on (1, 1.0, True)
                taken.add(value)
            elif rest:
                continue
            else:
                rest = True
            self.branches_taken += 1
            yield {pivot: value}, None

    @staticmethod
    def expand(branches: Iterable[Tuple[Dict[Null, Any], None, Truths]]) -> Truths:
        holds = fails = None
        for assignment, _weight, (branch_holds, branch_fails) in branches:
            if holds is None and branch_holds is not None:
                holds = _merged(assignment, branch_holds)
            if fails is None and branch_fails is not None:
                fails = _merged(assignment, branch_fails)
            if holds is not None and fails is not None:
                break
        return holds, fails

    def atom(self, atom: Eq) -> Truths:
        left, right = atom.left, atom.right
        if not is_null(left):
            left, right = right, left
        values = self.values
        if is_null(right):  # two distinct nulls
            first = values[0]
            other = next((v for v in values if v != first), None)
            return {left: first, right: first}, (
                None if other is None else {left: first, right: other}
            )
        equal = next((v for v in values if v == right), None)
        other = next((v for v in values if v != right), None)
        return (
            None if equal is None else {left: equal},
            None if other is None else {left: other},
        )


class Validity:
    """Validity of conditions over a finite domain, with falsifying valuations.

    The Boolean instance of the decomposer behind :func:`confidence`:
    independent AND/OR splits and Shannon expansion, where a Shannon step
    branches on the domain values the condition mentions plus one
    representative of the rest (sound for equality-only conditions, which
    c-table lineage is).  Every branch ticks the ambient budget, so a
    ``max_worlds``/deadline budget bounds a check as it bounds world
    enumeration.  Conditions with nulls need a non-empty ``domain``; one
    instance memoizes across the conditions it checks.
    """

    __slots__ = ("algebra", "decomposer")

    def __init__(self, domain: Sequence[Any], kernel: Optional[ConditionKernel] = None) -> None:
        self.algebra = _FiniteDomain(domain)
        kernel = kernel if kernel is not None else ConditionKernel()
        self.decomposer = _Decomposer(self.algebra, kernel, {})

    @property
    def branches(self) -> int:
        """Shannon branches taken so far (each one budget tick)."""
        return self.algebra.branches_taken

    def falsifier(self, condition: Condition) -> Optional[Dict[Null, Any]]:
        """``None`` when ``condition`` holds under every valuation of its
        nulls into the domain, else one under which it fails."""
        condition = self.decomposer.kernel.intern(condition)
        return self.decomposer.value(condition)[1]


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
    evaluator = _Decomposer(_Probability(model), kernel, memo, base=base, shared=shared)
    with span("prob.confidence", nulls=len(kernel.nulls(condition))) as sp:
        result = evaluator.value(condition)
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
