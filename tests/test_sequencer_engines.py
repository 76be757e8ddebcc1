"""Tests for sequencers and the three fill engines."""

from repro.config import (
    FragmentConfig,
    MemoryConfig,
    TraceCacheConfig,
)
from repro.core.uop import DecodeCache
from repro.frontend.buffers import FragmentInFlight
from repro.frontend.engines import (
    ParallelFillEngine,
    SequentialFillEngine,
    TraceCacheFillEngine,
    _BankGate,
)
from repro.frontend.fragments import walk_fragment
from repro.frontend.sequencer import Sequencer
from repro.frontend.trace_cache import TraceCache
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.perf.soa import FragMeta
from repro.stats import StatsCollector

CONFIG = FragmentConfig()


def setup(source):
    program = assemble(source)
    stats = StatsCollector()
    memory = MemoryHierarchy(MemoryConfig(), stats)
    return program, memory, stats


def fragment_at(program, label, seq=0, dirs=()):
    static = walk_fragment(program, program.symbols[label], dirs, CONFIG)
    fragment = FragmentInFlight(seq, static.key, static, (), ())
    fragment.soa_meta = FragMeta(static, DecodeCache())
    return fragment


def warm_lines(memory, fragment):
    for pc in fragment.static_frag.traversed_pcs:
        memory.l1i.fill(pc)
        memory.l2.fill(pc)


ALWAYS = lambda addr: True

STRAIGHT_16 = ("f:\n" + "\n".join(["    add t0, t0, t1"] * 15)
               + "\n    jr t0\n")


class TestSequencer:
    def test_width_limits_per_cycle(self):
        program, memory, stats = setup(STRAIGHT_16)
        fragment = fragment_at(program, "f")
        warm_lines(memory, fragment)
        sequencer = Sequencer(0, 4, program, memory, stats)
        fetched = sequencer.fetch_fragment(fragment, 1, ALWAYS)
        assert fetched == 4
        assert not fragment.complete

    def test_completes_fragment_over_cycles(self):
        program, memory, stats = setup(STRAIGHT_16)
        fragment = fragment_at(program, "f")
        warm_lines(memory, fragment)
        sequencer = Sequencer(0, 8, program, memory, stats)
        now, total = 0, 0
        while not fragment.complete and now < 20:
            now += 1
            total += sequencer.fetch_fragment(fragment, now, ALWAYS)
        assert fragment.complete
        assert total == fragment.static_frag.length

    def test_taken_branch_ends_cycle(self):
        program, memory, stats = setup("""
        f:
            add t0, t0, t1
            j   next
            nop
        next:
            add t0, t0, t1
            jr  t0
        """)
        fragment = fragment_at(program, "f")
        warm_lines(memory, fragment)
        sequencer = Sequencer(0, 16, program, memory, stats)
        assert sequencer.fetch_fragment(fragment, 1, ALWAYS) == 2
        assert sequencer.fetch_fragment(fragment, 2, ALWAYS) == 2

    def test_miss_stalls_fragment_then_bypasses(self):
        program, memory, stats = setup(STRAIGHT_16)
        fragment = fragment_at(program, "f")  # cold caches: miss
        sequencer = Sequencer(0, 8, program, memory, stats)
        assert sequencer.fetch_fragment(fragment, 1, ALWAYS) == 0
        assert fragment.fetch_stall_until > 1
        assert fragment.fetch_pending_line >= 0
        # After the wait, data is consumed via fill bypass even if the
        # line were evicted.
        memory.l1i.invalidate_all()
        ready = fragment.fetch_stall_until
        assert sequencer.fetch_fragment(fragment, ready, ALWAYS) == 8

    def test_nops_fill_slots_but_dont_count(self):
        program, memory, stats = setup(
            "f:\n    add t0, t0, t1\n    nop\n    nop\n"
            "    add t0, t0, t1\n    jr t0\n")
        fragment = fragment_at(program, "f")
        warm_lines(memory, fragment)
        sequencer = Sequencer(0, 16, program, memory, stats)
        fetched = sequencer.fetch_fragment(fragment, 1, ALWAYS)
        assert fetched == 3  # NOPs eliminated
        assert stats.get("fetch.slots") == 16

    def test_bank_blocked_counts_no_slots(self):
        program, memory, stats = setup(STRAIGHT_16)
        fragment = fragment_at(program, "f")
        warm_lines(memory, fragment)
        sequencer = Sequencer(0, 8, program, memory, stats)
        assert sequencer.fetch_fragment(fragment, 1, lambda a: False) == 0
        assert stats.get("fetch.slots") == 0
        assert stats.get("fetch.bank_conflicts") == 1


class TestBankGate:
    def test_same_line_shares_grant(self):
        _, memory, _ = setup("f:\n    jr t0\n")
        gate = _BankGate(memory, max_grants=16)
        gate.reset()
        assert gate(0x1000)
        assert gate(0x1004)          # same line: piggybacks
        assert gate(0x1000 + 64)     # next line, different bank

    def test_same_bank_different_line_conflicts(self):
        _, memory, _ = setup("f:\n    jr t0\n")
        gate = _BankGate(memory, max_grants=16)
        gate.reset()
        banks = memory.num_ibanks
        assert gate(0x1000)
        assert not gate(0x1000 + 64 * banks)  # same bank, other line
        gate.reset()
        assert gate(0x1000 + 64 * banks)

    def test_grant_budget(self):
        _, memory, _ = setup("f:\n    jr t0\n")
        gate = _BankGate(memory, max_grants=1)
        gate.reset()
        assert gate(0x1000)
        assert not gate(0x1040)


class TestParallelEngine:
    def test_redeployment_past_missing_fragment(self):
        """A fragment stalled on a miss must not block younger ones."""
        program, memory, stats = setup(
            STRAIGHT_16 + "g:\n" + "\n".join(["    sub t0, t0, t1"] * 7)
            + "\n    jr t0\n")
        first = fragment_at(program, "f", seq=0)     # cold: will miss
        second = fragment_at(program, "g", seq=1)
        warm_lines(memory, second)
        engine = ParallelFillEngine(program, memory, stats,
                                    sequencers=2, sequencer_width=8)
        engine.accept(first)
        engine.accept(second)
        engine.cycle(1)   # first misses; second fetches
        assert first.fetch_stall_until > 1
        assert second.fetched_count > 0

    def test_squash_drops_pending(self):
        program, memory, stats = setup(STRAIGHT_16)
        fragment = fragment_at(program, "f")
        engine = ParallelFillEngine(program, memory, stats, 2, 8)
        engine.accept(fragment)
        fragment.squashed = True
        engine.squash()
        assert engine.cycle(1) == 0


class TestSequentialEngine:
    def test_blocks_behind_missing_fragment(self):
        """Sequential fetch cannot work past a stall (Section 2.1)."""
        program, memory, stats = setup(
            STRAIGHT_16 + "g:\n    sub t0, t0, t1\n    jr t0\n")
        first = fragment_at(program, "f", seq=0)   # cold: miss
        second = fragment_at(program, "g", seq=1)
        warm_lines(memory, second)
        engine = SequentialFillEngine(program, memory, stats)
        engine.accept(first)
        engine.accept(second)
        for now in range(1, 5):
            engine.cycle(now)
        assert second.fetched_count == 0  # still waiting behind `first`


class TestTraceCacheEngine:
    def test_hit_supplies_whole_fragment_in_one_cycle(self):
        program, memory, stats = setup(STRAIGHT_16)
        fragment = fragment_at(program, "f")
        tc = TraceCache(TraceCacheConfig(), stats)
        tc.insert(fragment.key)
        engine = TraceCacheFillEngine(program, memory, tc, stats)
        engine.accept(fragment)
        fetched = engine.cycle(1)
        assert fragment.complete
        assert fetched == fragment.static_frag.length

    def test_miss_fills_trace_cache(self):
        program, memory, stats = setup(STRAIGHT_16)
        fragment = fragment_at(program, "f")
        warm_lines(memory, fragment)
        tc = TraceCache(TraceCacheConfig(), stats)
        engine = TraceCacheFillEngine(program, memory, tc, stats)
        engine.accept(fragment)
        for now in range(1, 6):
            engine.cycle(now)
        assert fragment.complete
        assert tc.lookup(fragment.key)  # filled after construction
