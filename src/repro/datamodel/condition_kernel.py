"""A hash-consed kernel for c-table conditions.

The Imieliński–Lipski algebra (:mod:`repro.algebra.ctable_algebra`)
builds Boolean conditions row pair by row pair; dense joins construct the
same equalities, conjunctions and negations over and over, and the seed
implementation re-runs :meth:`Condition.simplify` on every composition.
This module makes the condition DAG cheap to build and reuse — the same
treatment probabilistic-database engines give their lineage formulas:

* **Interning (hash-consing).**  :meth:`ConditionKernel.intern` maps every
  condition to a canonical, simplified instance; structurally equal
  conditions become the *same* object, so composition memo tables can be
  keyed by identity instead of re-hashing whole subtrees.
* **Memoized connectives.**  :meth:`ConditionKernel.and_` /
  :meth:`ConditionKernel.or_` memoize pairwise composition under
  ``(id(a), id(b))``; :meth:`ConditionKernel.not_` caches the negation on
  the node itself.  Flattening, ``true``/``false`` elimination and
  duplicate removal happen at construction, so the result of a kernel
  constructor never needs a separate ``simplify()`` pass.
* **Cached nulls.**  :func:`kernel_nulls` computes the set of nulls
  mentioned by a condition once per node (shared frozensets, no repeated
  set unions); the cache is structural, hence shared by all kernels.
* **Unsatisfiability check.**  A union-find over the equality atoms of a
  conjunction detects conditions like ``x = 1 ∧ x = 2`` or
  ``x = y ∧ y = 1 ∧ x ≠ 1`` at construction time, collapsing them to
  ``FALSE`` before they are expanded further (e.g. before a membership
  disjunction is built on top of them).

The kernel produces plain :class:`~repro.datamodel.conditional.Condition`
nodes, so everything downstream (``evaluate``, ``substitute``,
``possible_worlds``, structural equality) keeps working; it only
guarantees that what it returns is already simplified and canonical.

Kernel state lives on :class:`ConditionKernel` instances: every
:class:`~repro.session.Session` owns one, so two sessions never share
intern or memo tables, and :func:`repro.connect` can bound each one
independently through ``kernel_watermark=``.  There is no process-wide
kernel: code outside a session builds its own ``ConditionKernel()``.

Canonical nodes are held strongly by a kernel's intern table, which keeps
the identity keys of its memo tables stable; :meth:`ConditionKernel.clear`
drops every table at once (mainly for tests and benchmarks), and
:meth:`ConditionKernel.evict` reclaims the conditions a whole usage epoch
never touched.  A kernel constructed with ``watermark=n`` runs that
eviction automatically whenever its intern table grows past ``n``.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .conditional import (
    FALSE,
    TRUE,
    And,
    Condition,
    Eq,
    FalseCondition,
    Not,
    Or,
    TrueCondition,
)
from .values import intern_value, is_null

# Structural nulls cache: a pure function of the condition tree, hence one
# shared attribute regardless of which kernel canonized the node.
_NULLS = "_kernel_nulls"

_EMPTY_NULLS: FrozenSet[Any] = frozenset()

#: Distinct per-node attribute suffixes, one per kernel instance, so the
#: canonical marks / negation caches / touch stamps of different kernels
#: (different sessions) can never be confused for one another.
_KERNEL_IDS = itertools.count(1)


class ConditionKernel:
    """Hash-consing state for one evaluation context (typically a Session).

    Parameters
    ----------
    watermark:
        When set, :meth:`evict` runs automatically as soon as the intern
        table grows past this many canonical nodes: conditions created or
        reused in the epoch now ending survive (hot conditions keep their
        identity), cold ones are reclaimed.  After each sweep the next
        trigger point is ``max(watermark, 2 * kept)`` so a working set
        larger than the watermark cannot thrash the sweep on every insert.
    memo_limit:
        Bound on *each* of the ∧/∨ memo tables.  The intern watermark
        alone does not bound a long-lived session: the memo tables grow
        with every distinct operand *pair* and shrink only when a sweep
        happens to scrub their entries.  Past the limit the oldest half of
        the overflowing table is dropped (insertion order ≈ recency for
        memo hits in a composition-heavy workload) — purely a cache trim,
        results are recomputed on demand.  Defaults to ``8 * watermark``
        when a watermark is set, else unbounded.
    """

    __slots__ = (
        "_intern",
        "_and2",
        "_or2",
        "_epoch",
        "_use_epoch",
        "_watermark",
        "_trigger",
        "_memo_limit",
        "auto_evictions",
        "memo_trims",
        "_mark_attr",
        "_neg_attr",
        "_touch_attr",
        "_confidence",
        "_frozen",
    )

    def __init__(
        self,
        watermark: Optional[int] = None,
        memo_limit: Optional[int] = None,
    ) -> None:
        # canonical structural key -> canonical node (strong refs: identity
        # keys in the memo tables below stay valid exactly as long as these
        # entries live)
        self._intern: Dict[Tuple[Any, ...], Condition] = {}
        # (id(a), id(b)) -> (a, b, result); the operands are stored in the
        # value so their ids cannot be recycled while the entry exists
        self._and2: Dict[Tuple[int, int], Tuple[Condition, Condition, Condition]] = {}
        self._or2: Dict[Tuple[int, int], Tuple[Condition, Condition, Condition]] = {}
        # Epoch of the intern tables.  Canonical marks and negation caches
        # record the epoch they were written under; clearing bumps it, so
        # nodes surviving from an earlier generation re-intern instead of
        # short-circuiting on a stale mark (which would silently break
        # "structurally equal conditions are the same object" across a
        # clear).
        self._epoch = 0
        # Usage epoch for the eviction policy.  Every creation or reuse of
        # a canonical node stamps it with the current usage epoch;
        # :meth:`evict` keeps exactly the nodes stamped in the epoch now
        # ending (plus their operand closure) and starts the next one.
        # Unlike ``_epoch``, bumping this never invalidates surviving nodes.
        self._use_epoch = 0
        if watermark is not None and watermark < 1:
            raise ValueError(f"kernel watermark must be >= 1, got {watermark!r}")
        if memo_limit is not None and memo_limit < 2:
            raise ValueError(f"kernel memo_limit must be >= 2, got {memo_limit!r}")
        self._watermark = watermark
        self._trigger = watermark
        if memo_limit is None and watermark is not None:
            memo_limit = 8 * watermark
        self._memo_limit = memo_limit
        self.auto_evictions = 0
        self.memo_trims = 0
        suffix = f"_{next(_KERNEL_IDS)}"
        self._mark_attr = "_kernel_canonical" + suffix
        self._neg_attr = "_kernel_negation" + suffix
        self._touch_attr = "_kernel_touch" + suffix
        # id(model) -> (model, {id(condition): (condition, probability)});
        # per-model confidence memos for repro.prob (the model is stored in
        # the entry so its id cannot be recycled while the entry exists,
        # the same discipline as the pair memos above).
        self._confidence: Dict[int, Tuple[Any, Dict[int, Tuple[Condition, float]]]] = {}
        self._frozen = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> Optional[int]:
        """The intern-table size past which :meth:`evict` runs automatically."""
        return self._watermark

    @property
    def memo_limit(self) -> Optional[int]:
        """The per-memo-table size past which the oldest half is dropped."""
        return self._memo_limit

    @property
    def epoch(self) -> int:
        """The canonical-mark epoch: bumped by :meth:`clear`.

        Resumption tokens record this and treat a mismatch as "the kernel
        was reset".  :meth:`evict` does not bump it — eviction unmarks
        only the conditions it drops — so a cache of interned conditions
        that must also notice evictions keys on :attr:`generation`.
        """
        return self._epoch

    @property
    def generation(self) -> int:
        """Bumped by :meth:`clear` and by every :meth:`evict`, automatic ones too.

        A condition held *outside* the kernel since an older generation
        may no longer be canonical (an eviction unmarks what it drops), so
        anything that keeps interned conditions across calls — the
        c-table engine's scan snapshots and join build sides — records
        this and rebuilds on a mismatch.  Within one generation every
        condition the kernel handed out stays canonical.  Constant once
        the kernel is frozen.
        """
        return self._use_epoch

    def _trim_memo(
        self, table: Dict[Tuple[int, int], Tuple[Condition, Condition, Condition]]
    ) -> None:
        """Drop the oldest half of ``table`` when it outgrows the limit.

        Dicts preserve insertion order, so the first half of the keys is
        the coldest by creation time; a trimmed pair simply recomputes
        (``conjunction``/``disjunction`` stay correct without the memo).
        """
        limit = self._memo_limit
        if limit is None or len(table) <= limit:
            return
        for key in list(itertools.islice(iter(table), len(table) // 2)):
            del table[key]
        self.memo_trims += 1

    #: Most probability models tracked per kernel before the oldest is
    #: dropped; one session rarely juggles more than a couple of models.
    _CONFIDENCE_MODELS = 8

    def confidence_memo(self, model: Any) -> Optional[Dict[int, Tuple[Condition, float]]]:
        """The shared confidence memo for ``model``, or ``None`` when frozen.

        The memo maps ``id(condition) -> (condition, probability)`` —
        identity keys are valid because the condition is pinned in the
        value, the same discipline as the and/or pair memos.  A frozen
        kernel returns ``None`` so confidence evaluation memoizes
        per-call instead of mutating shared state; that keeps frozen
        sessions lock-free.
        """
        if self._frozen:
            return None
        entry = self._confidence.get(id(model))
        if entry is None or entry[0] is not model:
            entry = (model, {})
            self._confidence[id(model)] = entry
            while len(self._confidence) > self._CONFIDENCE_MODELS:
                del self._confidence[next(iter(self._confidence))]
        return entry[1]

    def frozen_confidence_memo(
        self, model: Any
    ) -> Optional[Dict[int, Tuple[Condition, float]]]:
        """The memo warmed for ``model`` before :meth:`freeze`, read-only.

        ``None`` when the model was never warmed.  Callers must not write
        into it — frozen-session confidence queries layer a per-call memo
        on top.
        """
        entry = self._confidence.get(id(model))
        if entry is not None and entry[0] is model:
            return entry[1]
        return None

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has made the kernel read-only."""
        return self._frozen

    def freeze(self) -> None:
        """Make the kernel read-only so it can be shared across threads.

        A frozen kernel serves interned hits without touch-stamping,
        canonizes misses without publishing them into the intern table
        (the result is still simplified and canonical *per call*, it just
        loses cross-call identity sharing), skips all memo writes, and
        refuses :meth:`clear`/:meth:`evict`.  Nothing reachable from the
        kernel is mutated after freezing, which under the GIL makes
        concurrent use safe without locks.  Warm the working set before
        freezing.  Freezing is one-way.
        """
        self._frozen = True

    def clear(self) -> None:
        """Drop the intern table and every memo table (tests/benchmarks)."""
        if self._frozen:
            from ..resilience import InvalidRequestError

            raise InvalidRequestError("cannot clear a frozen condition kernel")
        self._epoch += 1
        self._use_epoch += 1
        self._intern.clear()
        self._and2.clear()
        self._or2.clear()
        self._confidence.clear()
        self._trigger = self._watermark

    def stats(self) -> Dict[str, int]:
        """Sizes of the kernel tables (for tests and diagnostics)."""
        return {
            "interned": len(self._intern),
            "and_memo": len(self._and2),
            "or_memo": len(self._or2),
            "confidence_memo": sum(
                len(memo) for _, memo in self._confidence.values()
            ),
        }

    def evict(self) -> Dict[str, int]:
        """End the current usage epoch, evicting conditions it never touched.

        Long-running services call
        :meth:`repro.engine.planner.PlanCache.clear` as their one
        cache-reset point; dropping the *whole* kernel there throws away
        the very conditions the next query is about to rebuild.  This
        eviction keeps every condition created or reused since the
        previous eviction — the working set of the epoch now ending —
        together with its transitive operands (a retained conjunction must
        never reference an evicted atom), and drops the rest:

        * evicted nodes lose their canonical mark (and cached negation),
          so a structurally equal condition built later re-interns cleanly;
        * memo entries whose operands or result were evicted are dropped,
          so the tables cannot resurrect (or keep alive) evicted nodes.

        Returns ``{"kept": ..., "evicted": ...}`` intern-table counts.
        Conditions only *used* in an epoch survive it, so a hot condition
        lives across arbitrarily many evictions while a condition
        untouched for one full epoch is reclaimed.
        """
        if self._frozen:
            from ..resilience import InvalidRequestError

            raise InvalidRequestError("cannot evict from a frozen condition kernel")
        ending = self._use_epoch
        mark_attr = self._mark_attr
        neg_attr = self._neg_attr
        touch_attr = self._touch_attr
        retained: set = set()
        stack: List[Condition] = [
            node for node in self._intern.values() if getattr(node, touch_attr, None) == ending
        ]
        while stack:
            node = stack.pop()
            if id(node) in retained:
                continue
            retained.add(id(node))
            if isinstance(node, Not):
                stack.append(node.operand)
            elif isinstance(node, (And, Or)):
                stack.extend(node.operands)
            negation = getattr(node, neg_attr, None)
            if negation is not None and negation[0] == self._epoch:
                stack.append(negation[1])
        survivors: Dict[Tuple[Any, ...], Condition] = {}
        evicted = 0
        for key, node in self._intern.items():
            if id(node) in retained:
                survivors[key] = node
            else:
                evicted += 1
                object.__setattr__(node, mark_attr, None)
                if getattr(node, neg_attr, None) is not None:
                    object.__setattr__(node, neg_attr, None)
        self._intern.clear()
        self._intern.update(survivors)

        epoch = self._epoch

        def _live(condition: Condition) -> bool:
            if isinstance(condition, (TrueCondition, FalseCondition)):
                return True
            return getattr(condition, mark_attr, None) == epoch

        for table in (self._and2, self._or2):
            dead = [
                key
                for key, (a, b, result) in table.items()
                if not (_live(a) and _live(b) and _live(result))
            ]
            for key in dead:
                del table[key]
        # Confidence memos key conditions by identity; after an eviction the
        # evicted identities can never be looked up again, so the whole
        # per-model memo is dead weight.  Recomputing is always sound.
        self._confidence.clear()
        self._use_epoch += 1
        return {"kept": len(self._intern), "evicted": evicted}

    # ------------------------------------------------------------------
    # canonization plumbing
    # ------------------------------------------------------------------
    def _touch(self, node: Condition) -> None:
        if self._frozen:
            return  # touch stamps drive eviction, which a frozen kernel refuses
        if getattr(node, self._touch_attr, None) != self._use_epoch:
            object.__setattr__(node, self._touch_attr, self._use_epoch)

    def _canonize(self, key: Tuple[Any, ...], node: Condition) -> Condition:
        existing = self._intern.get(key)
        if existing is not None:
            self._touch(existing)
            return existing
        if self._frozen:
            # Read-only: the fresh node is simplified and private to this
            # call — mark it (it is not shared yet) but never publish it
            # into the intern table, which concurrent readers are walking.
            object.__setattr__(node, self._mark_attr, self._epoch)
            return node
        object.__setattr__(node, self._mark_attr, self._epoch)
        self._touch(node)
        self._intern[key] = node
        if self._trigger is not None and len(self._intern) > self._trigger:
            # The size watermark (ROADMAP "condition kernel growth"): end
            # the usage epoch right here.  Everything composed so far in
            # this epoch — including the operands of whatever condition is
            # being built at this very moment — carries the current touch
            # stamp, so in-flight compositions survive the sweep.
            self.evict()
            self.auto_evictions += 1
            self._trigger = max(self._watermark or 1, 2 * len(self._intern))
        return node

    # ------------------------------------------------------------------
    # Constructors: always return canonical, simplified nodes
    # ------------------------------------------------------------------
    def eq(self, left: Any, right: Any) -> Condition:
        """Canonical ``left = right``, constant-folded."""
        left = intern_value(left)
        right = intern_value(right)
        left_null = is_null(left)
        right_null = is_null(right)
        if not left_null and not right_null:
            return TRUE if left == right else FALSE
        if left_null and right_null and left == right:
            return TRUE
        key = ("eq", left, right)
        existing = self._intern.get(key)
        if existing is not None:
            self._touch(existing)
            return existing
        return self._canonize(key, Eq(left, right))

    def not_(self, operand: Condition) -> Condition:
        """Canonical negation (double negation and constants eliminated)."""
        if operand is TRUE:
            return FALSE
        if operand is FALSE:
            return TRUE
        operand = self.intern(operand)
        cached = getattr(operand, self._neg_attr, None)
        if cached is not None and cached[0] == self._epoch:
            self._touch(cached[1])
            return cached[1]
        if isinstance(operand, TrueCondition):
            result: Condition = FALSE
        elif isinstance(operand, FalseCondition):
            result = TRUE
        elif isinstance(operand, Not):
            result = operand.operand  # already canonical
        else:
            result = self._canonize(("not", id(operand)), Not(operand))
        if not self._frozen:  # the operand may be a shared interned node
            object.__setattr__(operand, self._neg_attr, (self._epoch, result))
        return result

    def conjunction(self, operands: Iterable[Condition]) -> Condition:
        """Canonical conjunction: flattened, deduplicated, unsat-checked."""
        flat: List[Condition] = []
        seen: set = set()
        for op in operands:
            op = self.intern(op)
            if isinstance(op, FalseCondition):
                return FALSE
            if isinstance(op, TrueCondition):
                continue
            if isinstance(op, And):
                members: Tuple[Condition, ...] = op.operands
            else:
                members = (op,)
            for member in members:
                marker = id(member)
                if marker not in seen:
                    seen.add(marker)
                    flat.append(member)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        if _equalities_unsatisfiable(flat):
            return FALSE
        key = ("and", tuple(id(op) for op in flat))
        existing = self._intern.get(key)
        if existing is not None:
            self._touch(existing)
            return existing
        return self._canonize(key, And(tuple(flat)))

    def disjunction(self, operands: Iterable[Condition]) -> Condition:
        """Canonical disjunction: flattened, deduplicated, constants removed."""
        flat: List[Condition] = []
        seen: set = set()
        for op in operands:
            op = self.intern(op)
            if isinstance(op, TrueCondition):
                return TRUE
            if isinstance(op, FalseCondition):
                continue
            if isinstance(op, Or):
                members: Tuple[Condition, ...] = op.operands
            else:
                members = (op,)
            for member in members:
                marker = id(member)
                if marker not in seen:
                    seen.add(marker)
                    flat.append(member)
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        key = ("or", tuple(id(op) for op in flat))
        existing = self._intern.get(key)
        if existing is not None:
            self._touch(existing)
            return existing
        return self._canonize(key, Or(tuple(flat)))

    def and_(self, a: Condition, b: Condition) -> Condition:
        """Memoized binary conjunction of canonical conditions."""
        if a is TRUE:
            return self.intern(b)
        if b is TRUE:
            return self.intern(a)
        if a is FALSE or b is FALSE:
            return FALSE
        key = (id(a), id(b))
        hit = self._and2.get(key)
        if hit is not None:
            self._touch(a)
            self._touch(b)
            self._touch(hit[2])
            return hit[2]
        result = self.conjunction((a, b))
        if not self._frozen:
            self._and2[key] = (a, b, result)
            self._trim_memo(self._and2)
        return result

    def or_(self, a: Condition, b: Condition) -> Condition:
        """Memoized binary disjunction of canonical conditions."""
        if a is FALSE:
            return self.intern(b)
        if b is FALSE:
            return self.intern(a)
        if a is TRUE or b is TRUE:
            return TRUE
        key = (id(a), id(b))
        hit = self._or2.get(key)
        if hit is not None:
            self._touch(a)
            self._touch(b)
            self._touch(hit[2])
            return hit[2]
        result = self.disjunction((a, b))
        if not self._frozen:
            self._or2[key] = (a, b, result)
            self._trim_memo(self._or2)
        return result

    def row_equality(self, left: Sequence[Any], right: Sequence[Any]) -> Condition:
        """Canonical component-wise equality of two rows."""
        if len(left) != len(right):
            raise ValueError("rows must have the same length")
        return self.conjunction(self.eq(a, b) for a, b in zip(left, right))

    # ------------------------------------------------------------------
    # Interning of externally built conditions
    # ------------------------------------------------------------------
    def intern(self, condition: Condition) -> Condition:
        """The canonical, simplified form of an arbitrary condition.

        Idempotent and cheap on already-canonical nodes (a marker attribute
        recording the current table epoch short-circuits); on foreign
        conditions — including survivors of :meth:`clear` and nodes
        canonized by *another* kernel, whose marks live under a different
        attribute — it rebuilds bottom-up through the kernel constructors,
        which is where simplification happens.
        """
        if condition is TRUE or condition is FALSE:
            return condition
        if getattr(condition, self._mark_attr, None) == self._epoch:
            self._touch(condition)
            return condition
        if isinstance(condition, TrueCondition):
            return TRUE
        if isinstance(condition, FalseCondition):
            return FALSE
        if isinstance(condition, Eq):
            return self.eq(condition.left, condition.right)
        if isinstance(condition, Not):
            return self.not_(self.intern(condition.operand))
        if isinstance(condition, And):
            return self.conjunction(self.intern(op) for op in condition.operands)
        if isinstance(condition, Or):
            return self.disjunction(self.intern(op) for op in condition.operands)
        raise TypeError(f"unsupported condition {condition!r}")

    def nulls(self, condition: Condition) -> FrozenSet[Any]:
        """The nulls mentioned by ``condition`` (structural, kernel-shared)."""
        return kernel_nulls(condition)


# ----------------------------------------------------------------------
# Cached nulls (structural — shared by every kernel)
# ----------------------------------------------------------------------
def kernel_nulls(condition: Condition) -> FrozenSet[Any]:
    """The nulls mentioned by ``condition``, cached on the node itself."""
    cached = getattr(condition, _NULLS, None)
    if cached is not None:
        return cached
    if isinstance(condition, (TrueCondition, FalseCondition)):
        result = _EMPTY_NULLS
    elif isinstance(condition, Eq):
        left_null = is_null(condition.left)
        right_null = is_null(condition.right)
        if left_null and right_null:
            result = frozenset((condition.left, condition.right))
        elif left_null:
            result = frozenset((condition.left,))
        elif right_null:
            result = frozenset((condition.right,))
        else:
            result = _EMPTY_NULLS
    elif isinstance(condition, Not):
        result = kernel_nulls(condition.operand)
    elif isinstance(condition, (And, Or)):
        parts = [kernel_nulls(op) for op in condition.operands]
        nonempty = [p for p in parts if p]
        if not nonempty:
            result = _EMPTY_NULLS
        elif len(nonempty) == 1:
            result = nonempty[0]
        else:
            result = frozenset().union(*nonempty)
    else:
        raise TypeError(f"unsupported condition {condition!r}")
    object.__setattr__(condition, _NULLS, result)
    return result


# ----------------------------------------------------------------------
# Union-find unsatisfiability check for equality conjunctions
# ----------------------------------------------------------------------
def _equalities_unsatisfiable(operands: Sequence[Condition]) -> bool:
    """``True`` when the ``Eq``/``¬Eq`` atoms among ``operands`` conflict.

    Sound but deliberately incomplete: positive equalities are merged with
    a union-find whose classes remember at most one constant; a conflict
    (two distinct constants forced equal, or a disequality inside one
    class) proves the whole conjunction unsatisfiable.  Atoms nested under
    ``Or`` are ignored — the check never reports a satisfiable condition
    as unsatisfiable.
    """
    parent: Dict[Any, Any] = {}
    constant_of: Dict[Any, Any] = {}

    def find(value: Any) -> Any:
        root = parent.setdefault(value, value)
        if root == value:
            if not is_null(value):
                constant_of.setdefault(value, value)
            return value
        # path compression
        path = []
        while parent[root] != root:
            path.append(root)
            root = parent[root]
        for node in path:
            parent[node] = root
        parent[value] = root
        return root

    equalities = [op for op in operands if type(op) is Eq]
    if not equalities:
        return False
    for eq in equalities:
        left_root = find(eq.left)
        right_root = find(eq.right)
        if left_root == right_root:
            continue
        left_const = constant_of.get(left_root)
        right_const = constant_of.get(right_root)
        if left_const is not None and right_const is not None and left_const != right_const:
            return True
        parent[left_root] = right_root
        if right_const is None and left_const is not None:
            constant_of[right_root] = left_const
    for op in operands:
        if type(op) is Not and type(op.operand) is Eq:
            atom = op.operand
            if find(atom.left) == find(atom.right):
                return True
    return False
