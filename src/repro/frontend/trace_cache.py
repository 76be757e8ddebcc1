"""Trace cache storage model (mechanism TC of Section 5).

A 2-way set-associative cache of traces, indexed by trace start address,
tagged by the full fragment key (start PC + branch directions) so that two
traces from the same start with different internal paths compete for the
ways of one set.  Each line stores up to 16 instructions; a hit supplies
the whole trace in a single cycle.

Like :class:`~repro.memory.cache.Cache`, each set is one tuple of its
resident fragment keys in LRU order, oldest first, shared with clones
until a write replaces it (docs/DATA_LAYOUT.md § 11).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import TraceCacheConfig
from repro.frontend.fragments import FragmentKey
from repro.stats import StatsCollector


class TraceCache:
    """Tag-level trace cache with true-LRU sets."""

    def __init__(self, config: TraceCacheConfig,
                 stats: Optional[StatsCollector] = None):
        self.config = config
        self.stats = stats if stats is not None else StatsCollector()
        self._num_sets = max(1, config.num_sets)
        #: Per set, the resident fragment keys in LRU order (oldest
        #: first); shared with clones, so replaced, never mutated.
        self._sets: List[Tuple[FragmentKey, ...]] = [()] * self._num_sets

    def lookup(self, key: FragmentKey) -> bool:
        """Probe for a trace; counts hit/miss and updates LRU."""
        index = (key.start_pc >> 2) % self._num_sets
        ways = self._sets[index]
        if key in ways:
            if ways[-1] != key:
                way = ways.index(key)
                self._sets[index] = ways[:way] + ways[way + 1:] + (key,)
            self.stats.add("tc.hits")
            return True
        self.stats.add("tc.misses")
        return False

    def insert(self, key: FragmentKey) -> None:
        """Fill a trace built by the miss path."""
        index = (key.start_pc >> 2) % self._num_sets
        ways = self._sets[index]
        if key in ways:
            if ways[-1] != key:
                way = ways.index(key)
                self._sets[index] = ways[:way] + ways[way + 1:] + (key,)
            return
        if len(ways) >= self.config.assoc:
            ways = ways[1:]
            self.stats.add("tc.evictions")
        self._sets[index] = ways + (key,)
        self.stats.add("tc.fills")

    def adopt_state(self, donor: "TraceCache") -> None:
        """Clone *donor*'s resident traces and LRU order: one copy of
        its list of per-set tuples, which both then share."""
        if donor.config != self.config:
            raise ValueError("trace-cache geometry mismatch in adopt_state")
        self._sets = list(donor._sets)

    def state_view(self) -> Tuple[Tuple[FragmentKey, ...], ...]:
        """Per set, its resident fragment keys in LRU order (oldest
        first): the trace cache's whole state, read-only."""
        return tuple(self._sets)

    @property
    def hit_rate(self) -> float:
        """Trace-cache hits over accesses so far."""
        hits = self.stats.get("tc.hits")
        total = hits + self.stats.get("tc.misses")
        return hits / total if total else 0.0
