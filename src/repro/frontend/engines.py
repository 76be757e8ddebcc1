"""Fill engines: how fragment buffers get filled.

All three fetch mechanisms share the fragment-buffer/readout machinery and
differ only in how buffers are filled:

* :class:`SequentialFillEngine` (W16) — one 16-wide sequencer, one cache
  line per cycle, fragments filled strictly in order; a cache miss stalls
  all fetch (the sequential-fetch limitation of Section 2.1);
* :class:`TraceCacheFillEngine` (TC) — a trace-cache probe per fragment; a
  hit delivers the whole fragment in one cycle, a miss falls back to the
  W16 sequencer and fills the trace cache when the fragment completes;
* :class:`ParallelFillEngine` (PF) — N narrow sequencers over a banked
  cache.  Sequencers are assigned to the oldest *fetchable* fragments each
  cycle, so a sequencer whose fragment is waiting on a cache miss is
  redeployed to another fragment while the miss is serviced (Section 2.2)
  — the source of parallel fetch's latency tolerance.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set

from repro.frontend.buffers import FragmentInFlight
from repro.frontend.sequencer import Sequencer
from repro.frontend.trace_cache import TraceCache
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatsCollector


class _BankGate:
    """Per-cycle arbitration over the banked instruction cache.

    Each bank serves one line per cycle; requests for a line that has
    already been read this cycle piggyback on that read (adjacent
    fragments frequently live in the same line, and one RAM row read can
    feed every consumer).
    """

    def __init__(self, memory: MemoryHierarchy, max_grants: int):
        self._memory = memory
        self._max_grants = max_grants
        self._line_shift = memory.config.l1i.line_bytes.bit_length() - 1
        self._busy: Set[int] = set()
        self._granted_lines: Set[int] = set()
        self._grants = 0

    def reset(self) -> None:
        self._busy.clear()
        self._granted_lines.clear()
        self._grants = 0

    def __call__(self, addr: int) -> bool:
        line = addr >> self._line_shift
        if line in self._granted_lines:
            return True
        if self._grants >= self._max_grants:
            return False
        bank = self._memory.ibank_of(addr)
        if bank in self._busy:
            return False
        self._busy.add(bank)
        self._granted_lines.add(line)
        self._grants += 1
        return True


class FillEngine:
    """Interface shared by all fill engines."""

    def can_accept(self) -> bool:
        """May the front-end hand this engine another fragment?"""
        raise NotImplementedError

    def accept(self, fragment: FragmentInFlight) -> None:
        """Queue a newly-allocated fragment for filling.

        Fragments satisfied by buffer reuse are already complete and are
        never handed to the engine.
        """
        raise NotImplementedError

    def cycle(self, now: int) -> int:
        """Advance one cycle; returns instructions fetched."""
        raise NotImplementedError

    def squash(self) -> None:
        """Drop any queued/active fragments that have been squashed."""
        raise NotImplementedError

    def busy_sequencers(self, now: int) -> int:
        """Sequencers with fetchable work this cycle (observability)."""
        raise NotImplementedError

    def prewarm_chunks(self, meta, pcs) -> None:
        """Eagerly build per-fragment fetch chunk tables.

        Functional-warming hook: chunk tables are pure functions of the
        static fragment and the sequencer geometry, so prebuilding them
        during warming is invisible to the timed run's results."""


class SequentialFillEngine(FillEngine):
    """W16: a single full-width sequencer, single-ported cache.

    Fragments fill strictly in order and a cache miss blocks everything —
    sequential fetch has no way to work past a stall.
    """

    def __init__(self, program: Program, memory: MemoryHierarchy,
                 stats: StatsCollector, width: int = 16):
        self.stats = stats
        self._queue: Deque[FragmentInFlight] = deque()
        self._sequencer = Sequencer(0, width, program, memory, stats)
        self._gate = _BankGate(memory, max_grants=1)
        self._current: Optional[FragmentInFlight] = None

    def can_accept(self) -> bool:
        """Whether the fetch queue has room for another fragment."""
        return len(self._queue) < 4

    def accept(self, fragment: FragmentInFlight) -> None:
        """Queue *fragment* for fetch."""
        self._queue.append(fragment)

    def prewarm_chunks(self, meta, pcs) -> None:
        """Prebuild the W16 sequencer's chunk table for one fragment."""
        self._sequencer.prewarm_chunks(meta, pcs)

    def cycle(self, now: int) -> int:
        """Fetch up to one fragment's worth of instructions this cycle."""
        if self._current is None and not self._queue:
            return 0  # idle: nothing queued, nothing in flight
        self._gate.reset()
        if self._current is not None and (self._current.complete
                                          or self._current.squashed):
            self._current = None
        if self._current is None:
            while self._queue and self._queue[0].squashed:
                self._queue.popleft()
            if not self._queue:
                return 0
            self._current = self._queue.popleft()
        return self._sequencer.fetch_fragment(self._current, now,
                                              self._gate)

    def squash(self) -> None:
        """Drop squashed fragments from fetch state."""
        self._queue = deque(f for f in self._queue if not f.squashed)
        if self._current is not None and self._current.squashed:
            self._current = None

    def busy_sequencers(self, now: int) -> int:
        """Sequencers actively fetching this cycle (0 or 1)."""
        return int(self._current is not None
                   and self._current.fetch_stall_until <= now)


class TraceCacheFillEngine(FillEngine):
    """TC: trace-cache probe, W16 fill path on misses."""

    def __init__(self, program: Program, memory: MemoryHierarchy,
                 trace_cache: TraceCache, stats: StatsCollector,
                 width: int = 16):
        self.stats = stats
        self._counts = self.stats.counts
        self.trace_cache = trace_cache
        self._queue: Deque[FragmentInFlight] = deque()
        self._sequencer = Sequencer(0, width, program, memory, stats)
        self._gate = _BankGate(memory, max_grants=1)
        self._filling: Optional[FragmentInFlight] = None

    def can_accept(self) -> bool:
        """Whether the fetch queue has room for another fragment."""
        return len(self._queue) < 4

    def accept(self, fragment: FragmentInFlight) -> None:
        """Queue *fragment* for trace-cache lookup and fetch."""
        self._queue.append(fragment)

    def prewarm_chunks(self, meta, pcs) -> None:
        """Prebuild the fill-path sequencer's chunk table."""
        self._sequencer.prewarm_chunks(meta, pcs)

    def cycle(self, now: int) -> int:
        """Probe the trace cache, then fill at most one fragment."""
        if self._filling is None and not self._queue:
            return 0  # idle: nothing queued, nothing in flight
        self._gate.reset()
        if self._filling is not None and (self._filling.squashed
                                          or self._filling.complete):
            self._filling = None

        if self._filling is None:
            while self._queue and self._queue[0].squashed:
                self._queue.popleft()
            if not self._queue:
                return 0
            fragment = self._queue.popleft()
            if self.trace_cache.lookup(fragment.key):
                # Hit: the whole trace arrives this cycle.
                length = fragment.static_frag.length
                fragment.fetched_count = length
                fragment.fetch_cursor = len(
                    fragment.static_frag.traversed_pcs)
                fragment.complete = True
                fragment.construct_cycle = now
                fragment.fetch_start_cycle = now
                self._counts["fetch.slots"] += 16
                self._counts["fetch.insts"] += length
                return length
            # Miss: build the trace through the sequential path.
            self._filling = fragment

        fetched = self._sequencer.fetch_fragment(self._filling, now,
                                                 self._gate)
        if self._filling.complete:
            self.trace_cache.insert(self._filling.key)
            self._filling = None
        return fetched

    def squash(self) -> None:
        """Drop squashed fragments from fetch state."""
        self._queue = deque(f for f in self._queue if not f.squashed)
        if self._filling is not None and self._filling.squashed:
            self._filling = None

    def busy_sequencers(self, now: int) -> int:
        """Sequencers actively fetching this cycle (0 or 1)."""
        return int(self._filling is not None
                   and self._filling.fetch_stall_until <= now)


class ParallelFillEngine(FillEngine):
    """PF: N sequencers of width/N each over a banked cache."""

    def __init__(self, program: Program, memory: MemoryHierarchy,
                 stats: StatsCollector, sequencers: int,
                 sequencer_width: int):
        self.stats = stats
        self._counts = self.stats.counts
        self._pending: List[FragmentInFlight] = []
        self._sequencers: List[Sequencer] = [
            Sequencer(i, sequencer_width, program, memory, stats)
            for i in range(sequencers)
        ]
        self._gate = _BankGate(memory, max_grants=memory.num_ibanks)

    def can_accept(self) -> bool:
        # Fragment supply is bounded by buffer availability upstream.
        """Always true: supply is bounded by fragment buffers."""
        return True

    def accept(self, fragment: FragmentInFlight) -> None:
        """Add *fragment* to the pool competing for sequencers."""
        self._pending.append(fragment)

    def prewarm_chunks(self, meta, pcs) -> None:
        """Prebuild the chunk table (all sequencers share one geometry)."""
        self._sequencers[0].prewarm_chunks(meta, pcs)

    def cycle(self, now: int) -> int:
        """Let the oldest fetchable fragments use the sequencers."""
        pending = self._pending
        if not pending:
            return 0
        self._gate.reset()
        # Oldest fetchable fragments win sequencers this cycle; fragments
        # waiting on a miss are skipped, overlapping the miss with the
        # fetch of younger fragments.
        keep: List[FragmentInFlight] = []
        candidates: List[FragmentInFlight] = []
        for f in pending:
            if f.squashed or f.complete:
                continue
            keep.append(f)
            if f.fetch_stall_until <= now:
                candidates.append(f)
        self._pending = keep
        fetched = 0
        for sequencer, fragment in zip(self._sequencers, candidates):
            fetched += sequencer.fetch_fragment(fragment, now, self._gate)
        stalled = len(keep) - len(candidates)
        if stalled:
            self._counts["fetch.miss_stall_cycles"] += stalled
        return fetched

    def squash(self) -> None:
        """Drop squashed fragments from the pending pool."""
        self._pending = [f for f in self._pending if not f.squashed]

    def busy_sequencers(self, now: int) -> int:
        """Sequencers with a fetchable fragment this cycle."""
        fetchable = sum(1 for f in self._pending
                        if not (f.squashed or f.complete)
                        and f.fetch_stall_until <= now)
        return min(fetchable, len(self._sequencers))
