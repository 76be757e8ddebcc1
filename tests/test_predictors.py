"""Tests for the trace predictor, live-out predictor, bimodal predictor
and return-address stack."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LiveOutPredictorConfig, TracePredictorConfig
from repro.frontend.fragments import FragmentKey
from repro.isa.assembler import assemble
from repro.isa.registers import LINK_REG
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.liveout import (
    LiveOutInfo,
    LiveOutPredictor,
    compute_liveouts,
)
from repro.predictors.return_stack import ReturnAddressStack
from repro.predictors.trace_predictor import TracePredictor


def key(pc, dirs=()):
    return FragmentKey(pc, tuple(dirs))


class TestTracePredictor:
    def make(self, **kwargs):
        return TracePredictor(TracePredictorConfig(**kwargs))

    def test_cold_predicts_none(self):
        assert self.make().predict() is None

    def test_learns_repeating_sequence(self):
        pred = self.make()
        sequence = [key(0x1000), key(0x2000, (True,)), key(0x3000)]
        # Train on several laps of the repeating sequence.
        for _ in range(8):
            for k in sequence:
                pred.train(k)
        # Walk the same sequence speculatively and check predictions.
        correct = 0
        for _ in range(3):
            for k in sequence:
                if pred.predict() == k:
                    correct += 1
                pred.push_history(k)
        assert correct >= 7  # all but perhaps the cold start

    def test_history_snapshot_restore(self):
        pred = self.make()
        for k in (key(0x1000), key(0x2000)):
            pred.push_history(k)
        snap = pred.snapshot_history()
        pred.push_history(key(0x3000))
        pred.restore_history(snap)
        assert pred.snapshot_history() == snap

    def test_hysteresis_resists_single_flip(self):
        pred = self.make()
        stable, blip = key(0x1000), key(0x9000)
        for _ in range(4):
            pred.train(stable)
            pred._retire_history = ()  # same history context each time
        pred._retire_history = ()
        pred.train(blip)
        pred._retire_history = ()
        # After one contrary outcome the entry still predicts `stable`.
        assert pred.predict() == stable

    def test_secondary_table_covers_shallow_history(self):
        pred = self.make()
        # Train a pair transition repeatedly.
        for _ in range(6):
            pred.train(key(0x1000))
            pred.train(key(0x2000))
        pred.push_history(key(0x1000))
        assert pred.predict() is not None

    def test_scaled_config(self):
        config = TracePredictorConfig().scaled(1024)
        assert config.primary_entries == 1024
        assert config.secondary_entries == 256


class TestComputeLiveouts:
    def test_simple_last_writes(self):
        program = assemble("""
            add t0, t1, t2
            add t0, t0, t0
            add t3, t0, t0
        """)
        info = compute_liveouts(program.instructions)
        assert sorted(info.liveout_list()) == [8, 11]  # t0, t3
        assert not info.is_last_write(0)
        assert info.is_last_write(1)
        assert info.is_last_write(2)
        assert info.length == 3

    def test_zero_register_excluded(self):
        program = assemble("add zero, t1, t2")
        info = compute_liveouts(program.instructions)
        assert info.liveout_regs == 0

    def test_call_writes_link_register(self):
        program = assemble("x: jal x")
        info = compute_liveouts(program.instructions)
        assert info.liveout_list() == [LINK_REG]

    def test_branches_write_nothing(self):
        program = assemble("x: beq t0, t1, x")
        info = compute_liveouts(program.instructions)
        assert info.liveout_regs == 0 and info.last_writes == 0


class TestLiveOutPredictor:
    def make(self, **kwargs):
        return LiveOutPredictor(LiveOutPredictorConfig(**kwargs))

    def test_miss_then_hit(self):
        pred = self.make()
        k = key(0x1000, (True,))
        assert pred.predict(k) is None
        info = LiveOutInfo(0b1100, 0b11, 2)
        pred.train(k, info)
        assert pred.predict(k) == info

    def test_retraining_updates(self):
        pred = self.make()
        k = key(0x1000)
        pred.train(k, LiveOutInfo(1, 1, 1))
        pred.train(k, LiveOutInfo(2, 2, 2))
        assert pred.predict(k) == LiveOutInfo(2, 2, 2)

    def test_capacity_eviction(self):
        pred = self.make(entries=4, assoc=2)
        keys = [key(0x1000 + 64 * i) for i in range(64)]
        for k in keys:
            pred.train(k, LiveOutInfo(1, 1, 1))
        hits = sum(pred.predict(k) is not None for k in keys)
        assert hits < len(keys)  # small table cannot hold them all

    def test_lru_within_set(self):
        pred = self.make(entries=2, assoc=2)  # single set
        a, b, c = key(0x1000), key(0x2000), key(0x3000)
        pred.train(a, LiveOutInfo(1, 1, 1))
        pred.train(b, LiveOutInfo(2, 2, 2))
        pred.predict(a)                      # promote a
        pred.train(c, LiveOutInfo(3, 3, 3))  # evicts b
        assert pred.predict(a) is not None
        assert pred.predict(c) is not None


class TestBimodal:
    def test_defaults_not_taken(self):
        assert not BimodalPredictor().predict(0x1000)

    def test_learns_taken(self):
        pred = BimodalPredictor()
        pred.train(0x1000, True)
        assert pred.predict(0x1000)

    def test_hysteresis(self):
        pred = BimodalPredictor()
        for _ in range(4):
            pred.train(0x1000, True)
        pred.train(0x1000, False)
        assert pred.predict(0x1000)  # one contrary outcome does not flip

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=3)

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_counter_stays_bounded(self, outcomes):
        pred = BimodalPredictor(entries=16)
        for taken in outcomes:
            pred.train(0x1000, taken)
        assert pred._counters.get(pred._index(0x1000), 1) in (0, 1, 2, 3)


class TestReturnAddressStack:
    def test_lifo_order(self):
        ras = ReturnAddressStack()
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100
        assert ras.pop() is None

    def test_depth_limit_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        for addr in (0x100, 0x200, 0x300):
            ras.push(addr)
        assert ras.pop() == 0x300
        assert ras.pop() == 0x200
        assert ras.pop() is None

    def test_snapshot_restore(self):
        ras = ReturnAddressStack()
        ras.push(0x100)
        snap = ras.snapshot()
        ras.push(0x200)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 0x100

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(depth=0)
