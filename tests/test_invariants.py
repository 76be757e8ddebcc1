"""Tests for the pipeline watchdog and per-cycle invariant audits."""

import pytest

from repro import frontend_config, run_simulation
from repro.core.invariants import (
    DEFAULT_STALL_CYCLES,
    InvariantChecker,
    PipelineWatchdog,
    dump_pipeline_state,
)
from repro.core.processor import Processor
from repro.core.uop import UopState
from repro.emulator.machine import execute
from repro.errors import DeadlockError, InvariantError, SimulationError
from repro.workloads.kernels import state_machine


def make_processor(config_name="w16", instructions=1200, **kwargs):
    program = state_machine(128)
    oracle = execute(program, instructions).stream
    return Processor(frontend_config(config_name), program, oracle, **kwargs)


class TestWatchdog:
    def test_healthy_run_never_trips(self):
        processor = make_processor(watchdog=PipelineWatchdog(stall_limit=500))
        processor.run()
        assert processor.finished

    def test_livelock_raises_deadlock_error(self):
        """A deliberately stalled processor (commit disabled) must raise
        DeadlockError at the stall limit, not run silently to the
        max_cycles bound."""
        processor = make_processor(
            watchdog=PipelineWatchdog(stall_limit=100))
        processor._commit = lambda: None
        with pytest.raises(DeadlockError) as excinfo:
            processor.run()
        error = excinfo.value
        # Far before the default max_cycles bound.
        assert error.cycle == pytest.approx(100, abs=5)
        assert "livelock" in str(error)

    def test_deadlock_carries_cycle_stamped_dump(self):
        processor = make_processor(watchdog=PipelineWatchdog(stall_limit=60))
        processor._commit = lambda: None
        with pytest.raises(DeadlockError) as excinfo:
            processor.run()
        message = str(excinfo.value)
        assert f"pipeline state @ cycle {excinfo.value.cycle}" in message
        assert "frag#" in message and "buffers:" in message
        assert excinfo.value.dump is not None

    def test_deadlock_is_a_simulation_error(self):
        """Callers catching the existing hierarchy keep working."""
        assert issubclass(DeadlockError, SimulationError)
        assert issubclass(InvariantError, SimulationError)

    def test_watchdog_disabled_times_out_silently(self):
        processor = make_processor(watchdog=None)
        processor._commit = lambda: None
        processor.run(max_cycles=300)
        assert not processor.finished
        assert processor.stats.get("sim.timeout") == 1

    def test_env_configures_stall_limit(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_CYCLES", "123")
        watchdog = PipelineWatchdog.from_env()
        assert watchdog is not None and watchdog.stall_limit == 123
        monkeypatch.setenv("REPRO_WATCHDOG_CYCLES", "0")
        assert PipelineWatchdog.from_env() is None
        monkeypatch.delenv("REPRO_WATCHDOG_CYCLES")
        watchdog = PipelineWatchdog.from_env()
        assert watchdog is not None
        assert watchdog.stall_limit == DEFAULT_STALL_CYCLES


class TestInvariantChecker:
    @pytest.mark.parametrize("config_name",
                             ["w16", "tc", "pf-2x8w", "pr-2x8w",
                              "tc+pr-4x4w"])
    def test_healthy_runs_pass_audits(self, config_name):
        result = run_simulation(config_name, state_machine(256),
                                max_instructions=2500,
                                invariant_checks=True)
        assert not result.timed_out

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_INVARIANT_CHECKS", raising=False)
        assert InvariantChecker.from_env() is None
        monkeypatch.setenv("REPRO_INVARIANT_CHECKS", "1")
        checker = InvariantChecker.from_env()
        assert checker is not None and checker.interval == 1
        monkeypatch.setenv("REPRO_INVARIANT_CHECKS", "16")
        checker = InvariantChecker.from_env()
        assert checker is not None and checker.interval == 16
        monkeypatch.setenv("REPRO_INVARIANT_CHECKS", "0")
        assert InvariantChecker.from_env() is None

    def run_briefly(self):
        # pr-2x8w keeps partially renamed fragments in flight at this
        # depth, giving the audits uops and map tables to corrupt.
        processor = make_processor("pr-2x8w")
        processor.run(max_cycles=40)
        assert processor.fragments, "expected in-flight fragments"
        return processor

    def test_detects_commit_cursor_overrun(self):
        processor = self.run_briefly()
        fragment = processor.fragments[0]
        fragment.committed_count = fragment.length + 7
        with pytest.raises(InvariantError) as excinfo:
            InvariantChecker().check(processor)
        assert "committed" in str(excinfo.value)
        assert excinfo.value.cycle == processor.now

    def test_detects_buffer_backpointer_mismatch(self):
        processor = self.run_briefly()
        occupied = [f for f in processor.fragments
                    if f.buffer_index is not None]
        assert occupied, "expected a buffered fragment"
        occupied[0].buffer_index = (occupied[0].buffer_index + 1) % len(
            processor.buffers._buffers)
        with pytest.raises(InvariantError) as excinfo:
            InvariantChecker().check(processor)
        assert "buffer" in str(excinfo.value)

    def test_detects_wrong_path_commit(self):
        processor = self.run_briefly()
        fragment = next(f for f in processor.fragments if f.uops)
        uop = fragment.uops[0]
        uop.oracle_idx = -1
        uop.state = UopState.COMMITTED
        fragment.committed_count = max(fragment.committed_count, 1)
        with pytest.raises(InvariantError) as excinfo:
            InvariantChecker().check(processor)
        assert "committed" in str(excinfo.value)
        assert excinfo.value.dump is not None

    def test_detects_rename_map_corruption(self):
        processor = self.run_briefly()
        fragment = next(f for f in processor.fragments
                        if f.internal_writers)
        reg = next(iter(fragment.internal_writers))
        foreign = make_processor("pr-2x8w")
        foreign.run(max_cycles=40)
        donor = next(f for f in foreign.fragments if f.uops)
        fragment.internal_writers[reg] = donor.uops[0]
        with pytest.raises(InvariantError) as excinfo:
            InvariantChecker().check(processor)
        assert "internal writer" in str(excinfo.value)

    def test_interval_skips_off_cycles(self):
        processor = self.run_briefly()
        fragment = processor.fragments[0]
        fragment.committed_count = fragment.length + 7
        checker = InvariantChecker(interval=10_000)
        if processor.now % 10_000:
            checker.check(processor)  # off-cycle: audit skipped
        checker = InvariantChecker(interval=1)
        with pytest.raises(InvariantError):
            checker.check(processor)


def test_dump_pipeline_state_is_cycle_stamped():
    processor = make_processor()
    processor.run(max_cycles=50)
    dump = dump_pipeline_state(processor)
    assert f"@ cycle {processor.now}" in dump
    assert "fragments in flight" in dump
    assert "commit.insts" in dump
