"""``MetricsRegistry``: counters, gauges and wall-time histograms.

One registry per :class:`repro.session.Session` (``Session.metrics()``
reads it); :class:`repro.serve.Server` merges its frozen session's
registry into ``Server.stats()``.  The design constraints, in order:

* **Lock-free hot path.**  A frozen session is shared by many threads
  without locks — the registry must keep that property.  Every thread
  records into its own *shard* (a plain per-thread dict, created once per
  thread per registry); under the GIL a ``dict[name] += value`` on a
  thread-private dict can neither race nor lose increments.  Shards are
  only ever *read* by other threads, at :meth:`snapshot` time, which sums
  them.  A shard outlives its thread, so counts from finished threads are
  never lost.
* **Negligible disabled cost.**  ``connect(metrics=False)`` builds a
  disabled registry: every recording method is one attribute check and a
  return.  The benchmark gate (``gate:obs``) holds the enabled-but-idle
  session to within a few percent of the disabled one.
* **Zero dependencies.**  Histograms are the five-number kind — count,
  sum, min, max — not bucketed; that is enough to read p0/p100/mean
  latencies off a service without dragging in a metrics library.

Deep library layers that have no session reference reach the ambient
registry through :func:`current_metrics` (a :class:`contextvars.ContextVar`
armed by the session's query entry points, mirroring
``repro.resilience.active_budget``): fetch once per call, pay one branch
per use when none is armed.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

__all__ = [
    "DISABLED_METRICS",
    "MetricsRegistry",
    "current_metrics",
    "metrics_scope",
]


#: Entry name -> its wall-time histogram's name (``count_and_observe``).
_SECONDS: Dict[str, str] = {}


class _Shard:
    """One thread's private slice of a registry (never shared for writes)."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        # name -> [count, sum, min, max]
        self.histograms: Dict[str, List[float]] = {}


class MetricsRegistry:
    """Counters, gauges and wall-time histograms with per-thread shards."""

    __slots__ = (
        "_enabled",
        "_local",
        "_shards",
        "_shards_lock",
        "_gauges",
        "_gauges_lock",
    )

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._local = threading.local()
        self._shards: List[_Shard] = []
        self._shards_lock = threading.Lock()
        # Gauges are last-write-wins and low-frequency (pool depths, not
        # per-row events); a small lock keeps them simple.
        self._gauges: Dict[str, float] = {}
        self._gauges_lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether this registry records anything at all."""
        return self._enabled

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard()
            self._local.shard = shard
            with self._shards_lock:
                self._shards.append(shard)
        return shard

    # -- recording (hot path) ------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value`` (thread-shard, lock-free)."""
        if not self._enabled:
            return
        # The shard read inline: ``count`` is on every warm request's path.
        counters = (getattr(self._local, "shard", None) or self._shard()).counters
        counters[name] = counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one sample of the wall-time histogram ``name``."""
        if not self._enabled:
            return
        histograms = self._shard().histograms
        entry = histograms.get(name)
        if entry is None:
            histograms[name] = [1, seconds, seconds, seconds]
            return
        entry[0] += 1
        entry[1] += seconds
        if seconds < entry[2]:
            entry[2] = seconds
        if seconds > entry[3]:
            entry[3] = seconds

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self._enabled:
            return
        with self._gauges_lock:
            self._gauges[name] = value

    def count_and_observe(self, name: str, seconds: float) -> None:
        """Bump counter ``name`` and record ``name + ".seconds"`` in one shot.

        The session entry-point pattern; one thread-shard fetch for both
        updates and the histogram name built once per entry name keep the
        per-query fixed cost down.
        """
        if not self._enabled:
            return
        shard = getattr(self._local, "shard", None) or self._shard()
        counters = shard.counters
        counters[name] = counters.get(name, 0) + 1
        histograms = shard.histograms
        key = _SECONDS.get(name) or _SECONDS.setdefault(name, name + ".seconds")
        entry = histograms.get(key)
        if entry is None:
            histograms[key] = [1, seconds, seconds, seconds]
            return
        entry[0] += 1
        entry[1] += seconds
        if seconds < entry[2]:
            entry[2] = seconds
        if seconds > entry[3]:
            entry[3] = seconds

    # -- reading (aggregates across shards) ----------------------------
    def counter_value(self, name: str) -> float:
        """The summed value of counter ``name`` across all thread shards."""
        with self._shards_lock:
            shards = list(self._shards)
        return sum(shard.counters.get(name, 0) for shard in shards)

    def counters(self) -> Dict[str, float]:
        """All counters, summed across shards."""
        with self._shards_lock:
            shards = list(self._shards)
        totals: Dict[str, float] = {}
        for shard in shards:
            for name, value in list(shard.counters.items()):
                totals[name] = totals.get(name, 0) + value
        return totals

    def gauges(self) -> Dict[str, float]:
        with self._gauges_lock:
            return dict(self._gauges)

    def histograms(self) -> Dict[str, Dict[str, float]]:
        """All histograms as ``{name: {count, sum, min, max, mean}}``."""
        with self._shards_lock:
            shards = list(self._shards)
        merged: Dict[str, List[float]] = {}
        for shard in shards:
            for name, entry in list(shard.histograms.items()):
                count, total, low, high = entry
                acc = merged.get(name)
                if acc is None:
                    merged[name] = [count, total, low, high]
                else:
                    acc[0] += count
                    acc[1] += total
                    if low < acc[2]:
                        acc[2] = low
                    if high > acc[3]:
                        acc[3] = high
        return {
            name: {
                "count": count,
                "sum": total,
                "min": low,
                "max": high,
                "mean": total / count if count else 0.0,
            }
            for name, (count, total, low, high) in merged.items()
        }

    def snapshot(self) -> Dict[str, Any]:
        """One coherent-enough view: counters, gauges, histograms.

        "Coherent enough": a counter bumped *while* the snapshot is taken
        may or may not be included, but no increment is ever lost — the
        next snapshot sees it.
        """
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }


#: Shared no-op registry: every recording call is one check and a return.
DISABLED_METRICS = MetricsRegistry(enabled=False)


_METRICS: "ContextVar[Optional[MetricsRegistry]]" = ContextVar(
    "repro_metrics", default=None
)


def current_metrics() -> Optional[MetricsRegistry]:
    """The ambient registry of the current context, or ``None``.

    Deep loops fetch this once per call and keep the result in a local;
    when it is ``None`` the metrics machinery costs one branch per use.
    """
    return _METRICS.get()


class metrics_scope:
    """Make ``registry`` the ambient registry for the duration of the block.

    ``None`` (or a disabled registry) is accepted and leaves the ambient
    registry untouched, so callers need no conditional around ``with``.
    """

    __slots__ = ("_registry", "_token")

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = (
            registry if registry is not None and registry._enabled else None
        )
        self._token = None

    def __enter__(self) -> Optional[MetricsRegistry]:
        if self._registry is not None:
            self._token = _METRICS.set(self._registry)
        return self._registry

    def __exit__(self, *exc_info: Any) -> bool:
        if self._token is not None:
            _METRICS.reset(self._token)
            self._token = None
        return False
