"""Set-associative cache model with true-LRU replacement.

This is a tag-array-only model: caches track which lines are resident, not
their contents (the functional emulator owns all values).  That is exactly
what a timing simulator needs and matches how SimpleScalar-derived models
work.

Each set is one tuple of its resident line addresses in LRU order,
oldest first (``()`` when empty).  Tuples are immutable, so a clone
(:meth:`Cache.adopt_state`) copies only the list of per-set pointers
and shares every tuple with its donor; a write builds a new tuple in the
writer's own list, which the donor and every other clone never see
(docs/DATA_LAYOUT.md § 11).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import CacheConfig
from repro.stats import StatsCollector


class Cache:
    """One level of set-associative cache (tags only, true LRU)."""

    def __init__(self, config: CacheConfig, name: str,
                 stats: Optional[StatsCollector] = None):
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else StatsCollector()
        self._counts = self.stats.counts
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        #: Per set, the resident line addresses in LRU order (oldest
        #: first); shared with clones, so replaced, never mutated.
        self._sets: List[Tuple[int, ...]] = [()] * self._num_sets
        # Stat keys, precomputed: lookup/fill run once per modelled cache
        # access and the f-string formatting dominated their cost.
        self._hits_key = f"{name}.hits"
        self._misses_key = f"{name}.misses"
        self._evictions_key = f"{name}.evictions"
        self._fills_key = f"{name}.fills"

    # -- address helpers ---------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing byte *addr*."""
        return addr >> self._line_shift

    def set_index(self, line: int) -> int:
        """Set index serving line-address *line*."""
        return line % self._num_sets

    def bank_of(self, addr: int) -> int:
        """Bank serving byte *addr* (lines interleave across banks)."""
        return self.line_addr(addr) % self.config.banks

    # -- operations ----------------------------------------------------------

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        """Tag check for the line containing *addr*.

        Counts a hit or miss.  On a hit the line is promoted to MRU unless
        *update_lru* is false.
        """
        line = addr >> self._line_shift
        index = line % self._num_sets
        ways = self._sets[index]
        if line in ways:
            if update_lru and ways[-1] != line:
                way = ways.index(line)
                self._sets[index] = ways[:way] + ways[way + 1:] + (line,)
            self._counts[self._hits_key] += 1
            return True
        self._counts[self._misses_key] += 1
        return False

    def probe(self, addr: int) -> bool:
        """Tag check with no statistics and no LRU update."""
        line = addr >> self._line_shift
        return line in self._sets[line % self._num_sets]

    def fill(self, addr: int) -> Optional[int]:
        """Install the line containing *addr*; return the evicted line
        address (or None).  Filling a resident line just promotes it."""
        line = addr >> self._line_shift
        index = line % self._num_sets
        ways = self._sets[index]
        if line in ways:
            if ways[-1] != line:
                way = ways.index(line)
                self._sets[index] = ways[:way] + ways[way + 1:] + (line,)
            return None
        victim = None
        if len(ways) >= self._assoc:
            victim = ways[0]
            ways = ways[1:]
            self._counts[self._evictions_key] += 1
        self._sets[index] = ways + (line,)
        self._counts[self._fills_key] += 1
        return victim

    def adopt_state(self, donor: "Cache") -> None:
        """Clone *donor*'s resident lines and LRU order: one copy of its
        list of per-set tuples, which both then share."""
        if donor.config != self.config:
            raise ValueError(f"{self.name}: cache geometry mismatch "
                             "in adopt_state")
        self._sets = list(donor._sets)

    def invalidate_all(self) -> None:
        """Empty every set (used between warming and timed runs)."""
        self._sets = [()] * self._num_sets

    def state_view(self) -> Tuple[Tuple[int, ...], ...]:
        """Per set, its resident line addresses in LRU order (oldest
        first): the cache's whole state, read-only."""
        return tuple(self._sets)

    # -- reporting --------------------------------------------------------

    @property
    def miss_rate(self) -> float:
        """Misses over accesses so far."""
        hits = self.stats.get(f"{self.name}.hits")
        misses = self.stats.get(f"{self.name}.misses")
        total = hits + misses
        return misses / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (f"Cache({self.name}, {cfg.size_bytes // 1024}KB, "
                f"{cfg.assoc}-way, {cfg.line_bytes}B lines)")
