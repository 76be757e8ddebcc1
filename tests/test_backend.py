"""Tests for the out-of-order core: window reservations, wakeup/select,
functional-unit limits, placeholder binding, and load latencies."""

import pytest

from repro.backend.core import OutOfOrderCore
from repro.config import BackEndConfig, MemoryConfig
from repro.core.uop import DecodedUop, MicroOp, PlaceholderProducer, UopState
from repro.emulator.stream import DynamicInstruction
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatsCollector


def make_core(**backend_kwargs):
    stats = StatsCollector()
    memory = MemoryHierarchy(MemoryConfig(), stats)
    return OutOfOrderCore(BackEndConfig(**backend_kwargs), memory, stats)


_SEQ = [0]


def make_uop(source_text="add t0, t1, t2", record=None, seq=None):
    inst = assemble(source_text).instructions[0]
    if seq is None:
        _SEQ[0] += 1
        seq = _SEQ[0]
    return MicroOp(seq, inst, inst.addr, fragment_seq=0, position=0,
                   record=record, decoded=DecodedUop(inst))


def run_until_done(core, uop, max_cycles=300):
    now = 0
    while uop.state is not UopState.DONE and now < max_cycles:
        now += 1
        core.cycle(now)
    return now


class TestReservations:
    def test_reserve_and_release(self):
        core = make_core(window_size=4)
        assert core.reserve(3, fragment_seq=1)
        assert not core.reserve(2, fragment_seq=2)
        assert core.reserve(1, fragment_seq=2)
        core.release(1, 2)
        assert core.window_free == 2

    def test_release_all(self):
        core = make_core(window_size=8)
        core.reserve(5, fragment_seq=1)
        core.release_all(1)
        assert core.window_free == 8

    def test_release_never_goes_negative(self):
        core = make_core(window_size=8)
        core.reserve(2, fragment_seq=1)
        core.release(1, 10)
        assert core.window_free == 8

    def test_set_reservation_shrinks_only(self):
        core = make_core(window_size=8)
        core.reserve(6, fragment_seq=1)
        core.set_reservation(1, 2)
        assert core.window_free == 6
        core.set_reservation(1, 4)  # growth request ignored
        assert core.window_free == 6


class TestExecution:
    def test_single_alu_op_completes(self):
        core = make_core()
        uop = make_uop()
        core.dispatch([uop], now=0)
        cycles = run_until_done(core, uop)
        # enters the window at dispatch latency 2, issues that cycle,
        # completes after the 1-cycle ALU latency
        assert cycles == 3

    def test_dependent_chain_executes_in_order(self):
        core = make_core()
        producer = make_uop("add t0, t1, t2")
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(producer)
        core.dispatch([producer, consumer], now=0)
        run_until_done(core, consumer)
        assert producer.complete_cycle < consumer.complete_cycle

    def test_independent_ops_complete_together(self):
        core = make_core()
        a = make_uop("add t0, t1, t2")
        b = make_uop("add t3, t4, t5")
        core.dispatch([a, b], now=0)
        run_until_done(core, b)
        assert a.complete_cycle == b.complete_cycle

    def test_multiply_latency_longer_than_alu(self):
        core = make_core()
        add = make_uop("add t0, t1, t2")
        mul = make_uop("mul t3, t4, t5")
        core.dispatch([add, mul], now=0)
        run_until_done(core, mul)
        assert mul.complete_cycle - add.complete_cycle == \
            BackEndConfig().fu_latencies["imul"] - 1

    def test_fu_structural_limit(self):
        # Only 4 int multipliers: 5 ready multiplies need two cycles.
        core = make_core()
        muls = [make_uop("mul t0, t1, t2") for _ in range(5)]
        core.dispatch(muls, now=0)
        run_until_done(core, muls[-1])
        completions = sorted(u.complete_cycle for u in muls)
        assert completions[3] < completions[4]

    def test_issue_width_limit(self):
        core = make_core(issue_width=2)
        uops = [make_uop() for _ in range(6)]
        core.dispatch(uops, now=0)
        run_until_done(core, uops[-1])
        by_cycle = {}
        for uop in uops:
            by_cycle.setdefault(uop.complete_cycle, 0)
            by_cycle[uop.complete_cycle] += 1
        assert max(by_cycle.values()) <= 2

    def test_oldest_first_select(self):
        core = make_core(issue_width=1)
        young = make_uop(seq=100)
        old = make_uop(seq=50)
        core.dispatch([young, old], now=0)
        run_until_done(core, young)
        assert old.complete_cycle < young.complete_cycle

    def test_squashed_uop_never_completes(self):
        core = make_core()
        uop = make_uop()
        core.dispatch([uop], now=0)
        uop.state = UopState.SQUASHED
        core.drop_squashed_dispatch()
        for now in range(1, 10):
            assert uop not in core.cycle(now)

    def test_load_miss_takes_memory_latency(self):
        core = make_core()
        inst = assemble("ld t0, 0(gp)").instructions[0]
        record = DynamicInstruction(0, inst, inst.addr, inst.addr + 4,
                                    ea=0x100000)
        load = make_uop("ld t0, 0(gp)", record=record)
        core.dispatch([load], now=0)
        cycles = run_until_done(core, load, max_cycles=300)
        assert cycles > 100  # cold miss to memory

    def test_load_hit_is_fast(self):
        core = make_core()
        core.memory.data_access(0x100000, 0)  # warm the D-cache
        inst = assemble("ld t0, 0(gp)").instructions[0]
        record = DynamicInstruction(0, inst, inst.addr, inst.addr + 4,
                                    ea=0x100000)
        load = make_uop("ld t0, 0(gp)", record=record)
        core.dispatch([load], now=1000)
        now = 1000
        while load.state is not UopState.DONE:
            now += 1
            core.cycle(now)
        assert now - 1000 <= 5

    def test_wrong_path_load_charged_hit_only(self):
        core = make_core()
        load = make_uop("ld t0, 0(gp)", record=None)
        core.dispatch([load], now=0)
        assert run_until_done(core, load) <= 5


class TestPlaceholders:
    def test_consumer_waits_for_unbound_placeholder(self):
        core = make_core()
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(placeholder)
        core.dispatch([consumer], now=0)
        for now in range(1, 20):
            core.cycle(now)
        assert consumer.state is UopState.WAITING

    def test_bind_before_producer_completion(self):
        core = make_core()
        producer = make_uop()
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(placeholder)
        core.dispatch([producer, consumer], now=0)
        core.cycle(1)
        placeholder.bind(producer)  # early bind: producer not done yet
        run_until_done(core, consumer)
        assert consumer.complete_cycle > producer.complete_cycle

    def test_late_bind_to_completed_producer_wakes_consumer(self):
        core = make_core()
        producer = make_uop()
        core.dispatch([producer], now=0)
        run_until_done(core, producer)
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(placeholder)
        core.dispatch([consumer], now=20)
        core.cycle(23)  # consumer in window, waiting
        assert consumer.state is UopState.WAITING
        core.bind_placeholder(placeholder, producer=producer)
        for now in range(24, 30):
            core.cycle(now)
        assert consumer.state is UopState.DONE

    def test_bind_ready_resolves_architectural_source(self):
        core = make_core()
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(placeholder)
        core.dispatch([consumer], now=0)
        core.cycle(3)
        core.bind_placeholder(placeholder, ready=True)
        for now in range(4, 10):
            core.cycle(now)
        assert consumer.state is UopState.DONE

    def test_placeholder_chain_resolution(self):
        core = make_core()
        producer = make_uop()
        inner = PlaceholderProducer(8, fragment_seq=0)
        outer = PlaceholderProducer(8, fragment_seq=1)
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(outer)
        core.dispatch([producer, consumer], now=0)
        core.cycle(1)
        core.bind_placeholder(outer, producer=inner)
        core.bind_placeholder(inner, producer=producer)
        run_until_done(core, consumer)
        assert consumer.state is UopState.DONE

    def test_sources_ready_reflects_placeholder_state(self):
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(placeholder)
        assert not consumer.sources_ready()
        placeholder.ready = True
        assert consumer.sources_ready()
