"""Budgets, typed failures and retry/degradation plumbing.

The paper's central guarantee is *soundness*: an evaluation scheme may
return fewer answers than the true certain answers, but never wrong ones
(Section 4's ``Q(D)_cmpl ⊑ certain(Q, D)``).  That guarantee dictates how
this library handles resource exhaustion and infrastructure failure: an
evaluation that cannot finish degrades to a *cheaper sound approximation*
(or a typed error) — never to a silently incorrect result.  This module
holds the pieces every layer shares:

* **Exception taxonomy.**  :class:`ReproError` is the base class of every
  failure the library raises on purpose.  :class:`BudgetExceeded` and
  :class:`BackendUnavailable` are the resource/infrastructure failures
  introduced here;
  :class:`SessionClosedError` and :class:`InvalidRequestError` re-type the
  session layer's historical ``RuntimeError``/``ValueError`` raises while
  *also* inheriting from those builtins, so existing ``except`` clauses
  (and the deprecation shims) keep working unchanged.

* **Budgets.**  A :class:`Budget` caps an evaluation by wall-clock
  ``deadline``, by ``max_worlds`` enumerated, or by ``max_block_size`` in
  the homomorphism layer.  Arming a budget (:func:`budget_scope`) plants
  a :class:`BudgetState` in a :class:`~contextvars.ContextVar`; the deep
  loops — world enumeration, the c-table operators, the homomorphism
  finder's backtracking, the chase's trigger loop — fetch it once per
  call (:func:`active_budget`) and check cooperatively.  When no budget
  is armed the fetch returns ``None`` and the loops pay one predictable
  branch per iteration, nothing more.

* **Retries.**  :func:`with_retries` re-runs a callable on *transient*
  failures with bounded exponential backoff plus jitter.  Transient, for
  the SQLite backend, means the ``SQLITE_BUSY``/``SQLITE_LOCKED`` family
  (:func:`is_transient_error`) — a malformed generated statement must
  keep failing loudly, retrying it would only mask a compiler bug.  The
  loop's shape (tries, delays, classifier) is a :class:`RetryPolicy`;
  sessions accept one via ``repro.connect(retry_policy=...)``.

* **Cancellation.**  :meth:`BudgetState.cancel` flags an armed evaluation
  from any thread; every cooperative check point then raises
  :class:`QueryCancelled` (which is *not* a :class:`BudgetExceeded` — it
  never degrades, it stops).  ``Session.cancel()`` combines this with the
  backend's ``Connection.interrupt()`` hard-cancel so even a statement
  running inside SQLite stops promptly.

* **Partial results.**  :class:`PartialResult` is what
  ``Query.certain(on_budget="partial")`` returns when a budget expires: a
  relation that is guaranteed to be a *sound subset* of the certain
  answers, flagged ``partial`` and carrying a human-readable verdict.  It
  deliberately does not compare equal to a plain relation — treating a
  lower bound as the full answer should never happen by accident.  When
  the interrupted enumeration reached a checkpoint the result also
  carries a :class:`ResumeToken`, and ``Query.certain(resume=partial)``
  continues the enumeration instead of restarting it.

* **Clocks.**  Budgets and retries take injectable clocks/sleepers so the
  fault-injection suite can test deadline behavior deterministically
  (:class:`ManualClock`).

This module depends only on the standard library, so every layer of the
package (datamodel, backends, session) can import it without cycles.
"""

from __future__ import annotations

import dataclasses
import random
import sqlite3
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, FrozenSet, Iterator, Optional, Tuple, TypeVar

from .obs.metrics import current_metrics
from .obs.trace import current_tracer

__all__ = [
    "BackendRecoveryWarning",
    "BackendUnavailable",
    "Budget",
    "BudgetExceeded",
    "BudgetState",
    "ConfidenceInterval",
    "InvalidRequestError",
    "ManualClock",
    "PartialResult",
    "QueryCancelled",
    "ReproError",
    "ResumeToken",
    "RetryPolicy",
    "SessionClosedError",
    "active_budget",
    "budget_scope",
    "is_transient_error",
    "with_retries",
]


# ----------------------------------------------------------------------
# Exception taxonomy
# ----------------------------------------------------------------------
class ReproError(Exception):
    """Base class of every failure this library raises deliberately.

    Callers that want "anything repro can throw on purpose" catch this one
    class; the fault-injection differential suite asserts that every
    non-answer outcome is an instance of it.
    """


class BudgetExceeded(ReproError):
    """A :class:`Budget` limit was hit before the evaluation finished.

    ``resource`` names the limit: ``"deadline"``, ``"worlds"`` or
    ``"block"``.
    """

    def __init__(self, message: str, resource: Optional[str] = None) -> None:
        super().__init__(message)
        self.resource = resource
        #: When the enumeration got far enough to checkpoint before the
        #: budget expired, the checkpoint rides along on the exception so
        #: ``Query.certain(resume=...)`` can pick up where it stopped.
        self.resume_token: Optional["ResumeToken"] = None


class QueryCancelled(ReproError):
    """The evaluation was cancelled by :meth:`~repro.session.Session.cancel`.

    Deliberately *not* a :class:`BudgetExceeded`: cancellation means
    "stop now", so it never enters the degradation ladder — it propagates
    to the caller that requested the work.
    """


class BackendUnavailable(ReproError):
    """The storage backend failed and no in-memory fallback is possible.

    Raised by the session layer when a backend-resident (out-of-core)
    evaluation dies on an environmental error: with no
    :class:`~repro.datamodel.Database` object in memory there is nothing
    to recover onto.
    """


class PoolExhausted(ReproError):
    """A :meth:`repro.serve.Server.cursor` checkout timed out.

    Raised instead of blocking forever when every ``backends=`` cursor
    session is held past the checkout ``timeout=``.  The request can be
    retried; ``timeout`` carries the bound that expired.
    """

    def __init__(self, message: str, timeout: Optional[float] = None) -> None:
        super().__init__(message)
        self.timeout = timeout


class SessionClosedError(ReproError, RuntimeError):
    """An operation was attempted on a closed :class:`~repro.session.Session`.

    Subclasses ``RuntimeError`` because that is what the session layer
    historically raised; existing ``except RuntimeError`` code keeps
    working.
    """


class InvalidRequestError(ReproError, ValueError):
    """A request the session layer rejects up front (bad engine name,
    missing database, undefined mode for the query kind, ...).

    Subclasses ``ValueError`` for the same compatibility reason as
    :class:`SessionClosedError`.
    """


def check_count(name: str, value: Any, minimum: int = 0) -> None:
    """Refuse ``value`` unless it is an ``int`` (not a ``bool``) ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InvalidRequestError(f"{name} must be an int >= {minimum}, got {value!r}")


class BackendRecoveryWarning(RuntimeWarning):
    """A runtime backend failure was recovered by the in-memory engine.

    Emitted at most once per session: the answers stay correct (the
    in-memory engine is the semantics oracle), but the backend's
    out-of-core and streaming benefits are gone until it heals.
    """


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
class Budget:
    """An immutable resource cap for one evaluation call.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the evaluation may run (cooperative: the deep
        loops check between cheap steps, so the overshoot is bounded by
        one step, not one world).
    max_worlds:
        Maximum number of possible worlds the enumeration strategies may
        evaluate.  The count is exact: the enumeration stops before
        evaluating world ``max_worlds + 1``.
    max_block_size:
        Maximum null-block size (in facts) the homomorphism layer will
        search; a larger block raises instead of starting an exponential
        search.
    clock:
        Monotonic time source (seconds); defaults to
        :func:`time.monotonic`.  Tests inject :class:`ManualClock`.
    """

    __slots__ = ("deadline", "max_worlds", "max_block_size", "clock")

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_worlds: Optional[int] = None,
        max_block_size: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline!r}")
        if max_worlds is not None and max_worlds < 1:
            raise ValueError(f"max_worlds must be >= 1, got {max_worlds!r}")
        if max_block_size is not None and max_block_size < 1:
            raise ValueError(f"max_block_size must be >= 1, got {max_block_size!r}")
        self.deadline = deadline
        self.max_worlds = max_worlds
        self.max_block_size = max_block_size
        self.clock = clock if clock is not None else time.monotonic

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline!r}")
        if self.max_worlds is not None:
            parts.append(f"max_worlds={self.max_worlds!r}")
        if self.max_block_size is not None:
            parts.append(f"max_block_size={self.max_block_size!r}")
        return f"Budget({', '.join(parts)})"

    def start(self) -> "BudgetState":
        """Arm the budget: start the deadline clock and the world counter."""
        return BudgetState(self)


class BudgetState:
    """One armed :class:`Budget`: mutable counters plus the expiry instant."""

    __slots__ = ("budget", "_clock", "_expires_at", "_worlds", "_cancelled")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self._clock = budget.clock
        self._expires_at = (
            None if budget.deadline is None else self._clock() + budget.deadline
        )
        self._worlds = 0
        self._cancelled = False

    @property
    def worlds(self) -> int:
        """Worlds counted so far (via :meth:`tick_world`)."""
        return self._worlds

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called (thread-safe to read)."""
        return self._cancelled

    def cancel(self) -> None:
        """Flag this evaluation for cooperative cancellation.

        Safe to call from another thread (a plain flag write): every
        budget check point — world ticks, the c-table operators, the
        backend's progress handler — turns into a
        :class:`QueryCancelled` raise at its next opportunity.
        """
        self._cancelled = True

    def remaining_time(self) -> Optional[float]:
        """Seconds until the deadline, or ``None`` when there is none."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    def check(self) -> None:
        """Raise on cancellation or a passed deadline."""
        if self._cancelled:
            raise QueryCancelled("evaluation cancelled by Session.cancel()")
        if self._expires_at is not None and self._clock() >= self._expires_at:
            raise BudgetExceeded(
                f"deadline of {self.budget.deadline}s exceeded", resource="deadline"
            )

    def tick_world(self) -> None:
        """Count one enumerated world and re-check every limit."""
        self._worlds += 1
        limit = self.budget.max_worlds
        if limit is not None and self._worlds > limit:
            raise BudgetExceeded(
                f"max_worlds={limit} exceeded after {self._worlds} worlds",
                resource="worlds",
            )
        self.check()

    def check_block(self, size: int) -> None:
        """Reject a homomorphism search over a block of ``size`` facts."""
        limit = self.budget.max_block_size
        if limit is not None and size > limit:
            raise BudgetExceeded(
                f"null block of {size} facts exceeds max_block_size={limit}",
                resource="block",
            )
        self.check()


_ACTIVE_BUDGET: "ContextVar[Optional[BudgetState]]" = ContextVar(
    "repro_active_budget", default=None
)


def active_budget() -> Optional[BudgetState]:
    """The armed budget of the current context, or ``None``.

    Deep loops fetch this once per call and keep the result in a local;
    when it is ``None`` the budget machinery costs one branch per
    iteration.
    """
    return _ACTIVE_BUDGET.get()


@contextmanager
def budget_scope(state: Optional[BudgetState]) -> Iterator[Optional[BudgetState]]:
    """Make ``state`` the ambient budget for the duration of the block.

    ``None`` is accepted and means "no budget" (the scope is a no-op), so
    callers need no conditional around the ``with`` statement.
    """
    if state is None:
        yield None
        return
    token = _ACTIVE_BUDGET.set(state)
    try:
        yield state
    finally:
        _ACTIVE_BUDGET.reset(token)


# ----------------------------------------------------------------------
# Partial results and resumption tokens
# ----------------------------------------------------------------------
class ResumeToken:
    """A checkpoint of an interrupted world enumeration.

    World enumeration has a *deterministic total order* (nulls sorted by
    name, the valuation domain sorted, extra-fact pools in schema order —
    see :mod:`repro.semantics.worlds`), which is what makes a plain world
    count a valid checkpoint: re-running the same ``(query, database,
    semantics, domain)`` enumerates the same worlds in the same order,
    so resumption skips exactly the worlds already intersected.

    Attributes
    ----------
    key:
        Fingerprint of the enumeration inputs (query, database facts,
        semantics, resolved domain, extra-facts cap).  ``certain(resume=)``
        refuses a token minted for different inputs — resuming a
        different enumeration would silently intersect unrelated answers.
    worlds_done:
        Worlds fully consumed before the interruption: exactly the
        worlds folded into the intersection.
    schema:
        Output schema observed so far (``None`` when no world finished).
    intersection:
        The running intersection over the first ``worlds_done`` worlds.
        **This is an over-approximation of the certain answers** — a
        superset, not a sound subset — which is exactly why it lives in
        the token (private resumption state) and never in
        ``PartialResult.rows``.
    kernel_epoch:
        The session's condition-kernel eviction epoch when the token was
        minted; resuming after the kernel was cleared/evicted is refused
        (interned condition identity may have changed under the session).
    interchangeable:
        The interchangeable values the counted enumeration ran canonical
        valuations over (:mod:`repro.semantics.worlds`); ``()`` when it
        ran every valuation.  ``worlds_done`` counts worlds of that
        enumeration only, so a run over the other one refuses the token.

    Tokens pickle (all fields are plain data), so a serving tier can park
    an interrupted enumeration and resume it in another process.
    """

    __slots__ = ("key", "worlds_done", "schema", "intersection", "kernel_epoch", "interchangeable")

    def __init__(
        self,
        key: Optional[str] = None,
        worlds_done: int = 0,
        schema: Any = None,
        intersection: Optional[FrozenSet[Tuple[Any, ...]]] = None,
        kernel_epoch: Optional[int] = None,
        interchangeable: Tuple[Any, ...] = (),
    ) -> None:
        self.key = key
        self.worlds_done = int(worlds_done)
        self.schema = schema
        self.intersection = None if intersection is None else frozenset(intersection)
        self.kernel_epoch = kernel_epoch
        self.interchangeable = tuple(interchangeable)

    def __getstate__(self) -> Tuple[Any, ...]:
        return (self.key, self.worlds_done, self.schema, self.intersection,
                self.kernel_epoch, self.interchangeable)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        (self.key, self.worlds_done, self.schema, self.intersection,
         self.kernel_epoch, self.interchangeable) = state

    def __repr__(self) -> str:
        held = "no rows" if self.intersection is None else f"{len(self.intersection)} rows held"
        return f"ResumeToken({self.worlds_done} worlds done; {held})"


class PartialResult:
    """A *sound subset* of the certain answers, flagged as incomplete.

    Produced by ``Query.certain(on_budget="partial")`` when the budget
    expires: every row in :attr:`relation` is guaranteed to be a certain
    answer (soundness is inherited from the fallback that computed it),
    but more certain answers may exist.  ``verdict`` says which fallback
    ran and why.

    Deliberately *not* equal to any plain relation — code must opt in to
    treating a lower bound as an answer by reading ``.relation``/``.rows``.

    When the interrupted evaluation was an enumeration that reached a
    checkpoint, :attr:`token` carries the :class:`ResumeToken`;
    ``Query.certain(resume=partial)`` continues from it.  Both the result
    and its token survive :mod:`pickle`, so a serving tier can hand the
    partial answer to a client and resume server-side later.
    """

    __slots__ = ("relation", "verdict", "resource", "token")

    #: Class-level flag: ``getattr(result, "partial", False)`` distinguishes
    #: a degraded answer from a complete Relation without isinstance checks.
    partial = True

    def __init__(
        self,
        relation: Any,
        verdict: str,
        resource: Optional[str] = None,
        token: Optional[ResumeToken] = None,
    ) -> None:
        self.relation = relation
        self.verdict = verdict
        self.resource = resource
        self.token = token

    def __getstate__(self) -> Tuple[Any, ...]:
        return (self.relation, self.verdict, self.resource, self.token)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self.relation, self.verdict, self.resource, self.token = state

    @property
    def schema(self) -> Any:
        return self.relation.schema

    @property
    def rows(self) -> Any:
        return self.relation.rows

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.relation)

    def __len__(self) -> int:
        return len(self.relation)

    def __repr__(self) -> str:
        return f"PartialResult({len(self.relation)} sound rows; {self.verdict})"


class ConfidenceInterval:
    """A Monte Carlo probability estimate, flagged as approximate.

    Produced when exact confidence computation (``Query.confidence()``)
    exceeds its budget and degrades to sampling: :attr:`estimate` is the
    sample mean, ``[low, high]`` a Wilson score interval at :attr:`level`
    over :attr:`samples` draws.  ``verdict`` says why the exact evaluator
    gave up (mirrors :class:`PartialResult`), ``resource`` which budget
    dimension expired.

    Deliberately *not* equal to any float — code must opt in to treating
    an estimate as a probability via ``float(interval)`` (or
    ``.estimate``); ``getattr(value, "partial", False)`` distinguishes it
    from an exact answer without isinstance checks.
    """

    __slots__ = ("estimate", "low", "high", "samples", "level", "verdict", "resource")

    #: Class-level flag, mirroring :class:`PartialResult`.
    partial = True

    def __init__(
        self,
        estimate: float,
        low: float,
        high: float,
        samples: int,
        level: float = 0.95,
        verdict: str = "monte-carlo estimate",
        resource: Optional[str] = None,
    ) -> None:
        self.estimate = float(estimate)
        self.low = float(low)
        self.high = float(high)
        self.samples = int(samples)
        self.level = float(level)
        self.verdict = verdict
        self.resource = resource

    def __float__(self) -> float:
        return self.estimate

    def __contains__(self, probability: object) -> bool:
        """Whether an (exact) probability lies inside the interval."""
        if not isinstance(probability, (int, float)):
            return False
        return self.low <= float(probability) <= self.high

    def __getstate__(self) -> Tuple[Any, ...]:
        return (self.estimate, self.low, self.high, self.samples, self.level,
                self.verdict, self.resource)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        (self.estimate, self.low, self.high, self.samples, self.level,
         self.verdict, self.resource) = state

    def __repr__(self) -> str:
        return (
            f"ConfidenceInterval({self.estimate:.4f} "
            f"[{self.low:.4f}, {self.high:.4f}] @ {self.level:.0%}, "
            f"{self.samples} samples; {self.verdict})"
        )


# ----------------------------------------------------------------------
# Retries
# ----------------------------------------------------------------------
#: SQLite OperationalError messages that signal a *transient* condition:
#: another connection holds a lock that will be released.  Everything else
#: (syntax errors, missing tables) must keep failing loudly.
_TRANSIENT_SQLITE_MARKERS = (
    "database is locked",
    "database table is locked",
    "database is busy",
)

T = TypeVar("T")

#: Default retry policy (documented in docs/robustness.md): 3 retries,
#: exponential backoff 5ms → 40ms, full jitter in [delay/2, delay].
DEFAULT_RETRIES = 3
DEFAULT_BASE_DELAY = 0.005
DEFAULT_MAX_DELAY = 0.05


def is_transient_error(error: BaseException) -> bool:
    """Is ``error`` a transient SQLite condition worth retrying?

    Only the ``SQLITE_BUSY``/``SQLITE_LOCKED`` family qualifies; a
    malformed statement or a missing table is a bug and retrying it would
    only mask it — and so would retrying a disk-I/O error or a full disk
    (those are *runtime failures*, handled by the session's in-memory
    recovery, not by retrying against the same sick storage).
    """
    if not isinstance(error, sqlite3.OperationalError):
        return False
    message = str(error).lower()
    return any(marker in message for marker in _TRANSIENT_SQLITE_MARKERS)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """The shape of a session's transient-failure retry loop.

    The PR-6 layer hard-coded 3 tries with a 5–40 ms exponential backoff;
    a serving tier wants this per session — a latency-critical reader may
    prefer ``retries=0`` (fail fast to a replica), a batch loader may
    tolerate seconds of lock contention.  Pass to
    ``repro.connect(retry_policy=...)`` and every ``with_retries`` site
    of the session (query execution, streaming, database refills, the 3VL
    bridge) honors it.

    ``retryable`` classifies errors; it defaults to
    :func:`is_transient_error`.  The defaults reproduce the historical
    shape exactly.
    """

    retries: int = DEFAULT_RETRIES
    base_delay: float = DEFAULT_BASE_DELAY
    max_delay: float = DEFAULT_MAX_DELAY
    retryable: Callable[[BaseException], bool] = is_transient_error

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay!r}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay!r}) must be >= base_delay "
                f"({self.base_delay!r})"
            )
        if not callable(self.retryable):
            raise ValueError("retryable must be callable")

    def delay_for(self, attempt: int) -> float:
        """The un-jittered backoff before retry number ``attempt + 1``."""
        return min(self.max_delay, self.base_delay * (2 ** attempt))


#: The historical retry shape; sessions default to this policy.
DEFAULT_RETRY_POLICY = RetryPolicy()


def with_retries(
    fn: Callable[[], T],
    *,
    policy: Optional[RetryPolicy] = None,
    retryable: Callable[[BaseException], bool] = is_transient_error,
    retries: int = DEFAULT_RETRIES,
    base_delay: float = DEFAULT_BASE_DELAY,
    max_delay: float = DEFAULT_MAX_DELAY,
    sleep: Optional[Callable[[float], None]] = None,
    rng: Optional[random.Random] = None,
) -> T:
    """Call ``fn()`` and re-call it on transient failures.

    ``policy`` bundles the loop's shape as a :class:`RetryPolicy`; the
    individual keyword arguments remain for callers that tweak one knob
    (they are ignored when a policy is given).

    Backoff is exponential (``base_delay * 2**attempt``, capped at
    ``max_delay``) with full jitter in ``[delay/2, delay]`` so concurrent
    retriers do not stampede the lock in lockstep.  A non-retryable error,
    or the ``retries + 1``-th failure, propagates unchanged.  When a
    budget is armed in the current context its deadline is honored twice
    over: an expired budget stops the retry loop with
    :class:`BudgetExceeded` instead of sleeping, and every backoff sleep
    is *clamped to the remaining deadline* — a 40 ms backoff with 3 ms
    left sleeps 3 ms, so the overshoot past the deadline is bounded by
    one budget check, not one backoff.

    ``sleep`` and ``rng`` are injectable for deterministic tests.
    """
    if policy is None:
        policy = RetryPolicy(
            retries=retries,
            base_delay=base_delay,
            max_delay=max_delay,
            retryable=retryable,
        )
    if sleep is None:
        sleep = time.sleep
    draw = rng.random if rng is not None else random.random
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as error:  # noqa: BLE001 - classified right below
            if attempt >= policy.retries or not policy.retryable(error):
                raise
            registry = current_metrics()
            if registry is not None:
                registry.count("retry.attempts")
            tracer = current_tracer()
            if tracer is not None:
                tracer.record(
                    "retry.attempt", 0.0, attempt=attempt, error=repr(error)
                )
            state = active_budget()
            if state is not None:
                state.check()
            delay = policy.delay_for(attempt) * (0.5 + draw() / 2)
            if state is not None:
                remaining = state.remaining_time()
                if remaining is not None:
                    delay = min(delay, max(0.0, remaining))
            sleep(delay)
            attempt += 1


# ----------------------------------------------------------------------
# Deterministic clocks for tests
# ----------------------------------------------------------------------
class ManualClock:
    """A monotonic clock under test control.

    ``ManualClock()`` stands still until :meth:`advance` is called;
    ``ManualClock(step=s)`` additionally advances itself by ``s`` seconds
    on every reading, which makes "the deadline expires after N budget
    checks" a deterministic property.  Doubles as a ``sleep`` injectable:
    calling the instance with a duration advances it.
    """

    __slots__ = ("now", "step")

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        self.now = float(start)
        self.step = float(step)

    def __call__(self, duration: Optional[float] = None) -> float:
        if duration is not None:  # used as a sleep(): advance and return
            self.now += duration
            return self.now
        current = self.now
        self.now += self.step
        return current

    def advance(self, seconds: float) -> None:
        self.now += seconds
