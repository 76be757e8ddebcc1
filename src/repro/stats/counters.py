"""Event counting for the timing model.

Every hardware model in the simulator shares one :class:`StatsCollector`
and bumps named counters on events.  Counters are created on first use;
reading a counter that was never bumped returns 0, which keeps reporting
code independent of which mechanisms were actually instantiated.

Thread-safety: :class:`StatsCollector` is deliberately lock-free — every
per-simulation collector is confined to the thread (or pool worker
process) running that simulation, and a lock in ``add`` would tax the
simulator's hottest path.  Collectors that *are* shared across threads —
the process-wide ``SWEEP_STATS``, ``PREP_STATS`` and ``CHECKPOINT_STATS``
accumulators — must use :class:`ThreadSafeStatsCollector`, whose mutators
and snapshot reads hold a lock (``value += amount`` is a read-modify-
write, so concurrent ``add`` calls on the plain class lose updates).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, Iterator, Tuple


class StatsCollector:
    """A bag of named event counters.

    Counter names are dotted paths by convention, e.g. ``fetch.slots``,
    ``l1i.misses``, ``rename.insts``.
    """

    def __init__(self) -> None:
        #: The counters themselves, created at 0.0 on first use.  The
        #: simulator's per-event hot paths keep a reference to this dict
        #: (as ``_counts``) and increment it in place (``counts[name] +=
        #: n``: what :meth:`add` does, without the call); rarer events
        #: call :meth:`add`.  The dict is never replaced, only cleared
        #: and refilled, so such a reference stays valid.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Names written through :meth:`set` — point-in-time gauges
        #: (worker counts, wall-clock seconds, utilization).  Merging a
        #: gauge overwrites (last writer wins) instead of summing.
        self._gauges: set = set()
        #: Names written through :meth:`maximum` — high-water marks.
        #: Merging takes the max of both sides.
        self._highwater: set = set()

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount*."""
        self.counts[name] += amount

    def set(self, name: str, value: float) -> None:
        """Set gauge *name* to an absolute value.

        ``set`` marks the name as a gauge: :meth:`merge` overwrites it
        (last writer wins) rather than summing, so point-in-time values
        like ``sweep.workers`` or ``sweep.utilization`` stay meaningful
        when sweeps accumulate into a process-wide collector.
        """
        self.counts[name] = value
        self._gauges.add(name)

    def maximum(self, name: str, value: float) -> None:
        """Raise high-water mark *name* to *value* if currently lower.

        ``maximum`` marks the name as a high-water mark: :meth:`merge`
        takes the larger of both sides instead of summing.
        """
        self._highwater.add(name)
        if value > self.counts.get(name, float("-inf")):
            self.counts[name] = value

    def get(self, name: str) -> float:
        """Current value of *name* (0 if never touched)."""
        return self.counts.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.counts

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator``, or 0.0 if the denominator is 0."""
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    def items(self) -> Iterator[Tuple[str, float]]:
        """(name, value) pairs in sorted name order."""
        return iter(sorted(self.counts.items()))

    def with_prefix(self, prefix: str) -> Dict[str, float]:
        """All counters whose name starts with ``prefix.``."""
        dot = prefix if prefix.endswith(".") else prefix + "."
        return {k: v for k, v in self.counts.items() if k.startswith(dot)}

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict copy of every counter."""
        return dict(self.counts)

    def merge(self, other: "StatsCollector") -> None:
        """Fold every counter from *other* into this collector.

        Plain event counters (written with :meth:`add`) sum.  Gauges
        (written with :meth:`set`) overwrite — last writer wins — and
        high-water marks (written with :meth:`maximum`) take the max,
        in both cases as classified by *other*.  Summing a gauge like
        ``sweep.workers`` across merges would turn "8 workers" into
        "24 workers after three sweeps", which is never the question
        being asked.
        """
        for name, value in other.counts.items():
            if name in other._gauges:
                self.counts[name] = value
                self._gauges.add(name)
            elif name in other._highwater:
                self._highwater.add(name)
                if value > self.counts.get(name, float("-inf")):
                    self.counts[name] = value
            else:
                self.counts[name] += value

    def reset(self) -> None:
        """Forget every counter (no phantom zero-valued entries remain).

        Unlike ``set(name, 0.0)`` per counter, names disappear entirely,
        so ``__contains__``, :meth:`as_dict` and :meth:`with_prefix` see a
        collector indistinguishable from a fresh one.
        """
        self.counts.clear()
        self._gauges.clear()
        self._highwater.clear()

    # ``clear`` mirrors the dict/set vocabulary.
    clear = reset

    def state(self) -> Tuple[Dict[str, float], frozenset, frozenset]:
        """A picklable snapshot of the collector's complete state.

        Unlike :meth:`as_dict`, the snapshot preserves the gauge /
        high-water classification, so :meth:`restore_state` rebuilds a
        collector whose future :meth:`merge` behaviour is identical —
        the contract checkpoint/restore depends on.
        """
        return (dict(self.counts), frozenset(self._gauges),
                frozenset(self._highwater))

    def restore_state(
        self, state: Tuple[Dict[str, float], frozenset, frozenset],
    ) -> None:
        """Replace all state with a snapshot taken by :meth:`state`."""
        counters, gauges, highwater = state
        self.counts.clear()
        self.counts.update(counters)
        self._gauges = set(gauges)
        self._highwater = set(highwater)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsCollector({len(self.counts)} counters)"


class ThreadSafeStatsCollector(StatsCollector):
    """A :class:`StatsCollector` safe to mutate from multiple threads.

    Every mutator (``add``/``set``/``maximum``/``merge``/``reset``) and
    every multi-item snapshot (``items``/``as_dict``/``with_prefix``)
    runs under one reentrant lock, so concurrent increments never lose
    updates and snapshots never observe a half-applied ``merge``.
    Single-value reads (:meth:`StatsCollector.get`) stay lock-free —
    reading one float is atomic under the GIL.

    Use this for collectors shared across threads (the process-wide
    ``SWEEP_STATS``, ``PREP_STATS`` and ``CHECKPOINT_STATS``);
    per-simulation collectors stay on the lock-free base class because
    they are thread-confined and ``add`` sits on the simulator hot path.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.RLock()

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount* (atomically)."""
        with self._lock:
            super().add(name, amount)

    def set(self, name: str, value: float) -> None:
        """Set gauge *name* to an absolute value (atomically)."""
        with self._lock:
            super().set(name, value)

    def maximum(self, name: str, value: float) -> None:
        """Raise high-water mark *name* to *value* (atomically)."""
        with self._lock:
            super().maximum(name, value)

    def merge(self, other: "StatsCollector") -> None:
        """Fold *other* in under the lock (one atomic batch).

        *other* is typically a thread-confined per-sweep collector, so
        only this side needs the lock.
        """
        with self._lock:
            super().merge(other)

    def reset(self) -> None:
        """Forget every counter (atomically)."""
        with self._lock:
            super().reset()

    clear = reset

    def items(self) -> Iterator[Tuple[str, float]]:
        """(name, value) pairs from one consistent snapshot."""
        with self._lock:
            return iter(sorted(self.counts.items()))

    def as_dict(self) -> Dict[str, float]:
        """A consistent plain-dict copy of every counter."""
        with self._lock:
            return dict(self.counts)

    def with_prefix(self, prefix: str) -> Dict[str, float]:
        """All counters under ``prefix.`` from one consistent snapshot."""
        with self._lock:
            return super().with_prefix(prefix)

    def state(self) -> Tuple[Dict[str, float], frozenset, frozenset]:
        """One consistent picklable snapshot of the complete state."""
        with self._lock:
            return super().state()

    def restore_state(
        self, state: Tuple[Dict[str, float], frozenset, frozenset],
    ) -> None:
        """Replace all state with a snapshot (atomically)."""
        with self._lock:
            super().restore_state(state)
