"""Tests for durable checkpoint/restore (``repro.checkpoint``).

Five concerns:

* **Config resolution** — the ``REPRO_CHECKPOINT*`` knobs and their
  precedence against explicit arguments.
* **Snapshot round-trip** — capture + restore onto a fresh processor
  continues bit-identically to the donor (counters included).
* **Kill-and-resume parity** — a run checkpointed every N committed
  instructions, ``os._exit``'d by the ``kill_mid_unit`` fault, and
  resumed in a fresh process produces a `SimulationResult` that is
  bit-identical to an uninterrupted run — for full-detail *and*
  sampled modes (the acceptance criterion).
* **Corruption** — torn snapshots (including ones torn by the
  ``checkpoint_corrupt`` fault) are quarantined to ``*.ckpt.corrupt``
  and resume falls back to the previous snapshot, or to zero.
* **Checkpoint seam edges** — ``run_until`` past end-of-stream,
  ``restart_at(0)``, back-to-back restarts, and restart after a
  watchdog ``DeadlockError``.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro import checkpoint, frontend_config, run_simulation
from repro.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CHECKPOINT_ENV,
    CHECKPOINT_KEEP_ENV,
    CHECKPOINT_STATS,
    CheckpointManager,
    ProcessorSnapshot,
    resolve_checkpoint_every,
    resolve_keep,
    run_fingerprint,
)
from repro.core.invariants import PipelineWatchdog
from repro.core.processor import Processor
from repro.core.warming import warm_processor
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.experiments.runner import SweepJob
from repro.faults import FAULTS_ENV
from repro.sampling import SamplingConfig, prep

LENGTH = 3000


@pytest.fixture(autouse=True)
def hermetic_env(monkeypatch, tmp_path):
    """Isolate every test from ambient checkpoint/fault/cache state."""
    monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
    monkeypatch.delenv(CHECKPOINT_KEEP_ENV, raising=False)
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt"))


def make_processor(config_name="w16", bench="gzip", length=LENGTH):
    config = frontend_config(config_name)
    program, result, _ = prep.get_oracle(bench, length)
    return Processor(config, program, result.stream,
                     watchdog=None, invariants=None)


def result_identity(result):
    """Everything that must survive kill + resume, bit for bit."""
    return (result.cycles, result.committed, result.ipc,
            dict(result.counters))


class TestResolution:
    def test_unset_env_means_off(self):
        assert resolve_checkpoint_every(None) is None

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, "2500")
        assert resolve_checkpoint_every(None) == 2500

    def test_explicit_value_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, "2500")
        assert resolve_checkpoint_every(700) == 700

    def test_false_blocks_env(self, monkeypatch):
        """``checkpoint_every=False`` pins a run to no checkpoints even
        under ``REPRO_CHECKPOINT`` (how sweep workers stay explicit)."""
        monkeypatch.setenv(CHECKPOINT_ENV, "2500")
        assert resolve_checkpoint_every(False) is None

    def test_zero_and_negative_disable(self):
        assert resolve_checkpoint_every(0) is None
        assert resolve_checkpoint_every(-5) is None

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, "soon")
        with pytest.raises(ConfigError):
            resolve_checkpoint_every(None)

    def test_keep_floor_is_one(self, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_KEEP_ENV, "0")
        assert resolve_keep() == 1

    def test_fingerprint_separates_runs(self):
        config = frontend_config("w16")
        base = run_fingerprint(config, "stream-a", True, None, 1000)
        assert base == run_fingerprint(config, "stream-a", True, None, 1000)
        assert base != run_fingerprint(config, "stream-a", True, None, 500)
        assert base != run_fingerprint(config, "stream-a", False, None, 1000)
        assert base != run_fingerprint(config, "stream-b", True, None, 1000)
        assert base != run_fingerprint(
            config, "stream-a", True, (16, 1000, 1000), 1000)
        assert base != run_fingerprint(
            frontend_config("tc"), "stream-a", True, None, 1000)


class TestSnapshotRoundTrip:
    def test_restore_continues_bit_identically(self):
        donor = make_processor()
        warm_processor(donor, donor._oracle)
        reference = make_processor()
        warm_processor(reference, reference._oracle)

        assert donor.run_until(1500)
        snap = ProcessorSnapshot.capture(donor, "fp")
        donor.restart_at(donor.committed)
        assert donor.run_until(LENGTH)
        donor.stamp_summary()

        resumed = make_processor()          # cold: restore supplies warmth
        snap.restore(resumed)
        assert resumed.committed == 1500
        assert resumed.run_until(LENGTH)
        resumed.stamp_summary()

        assert reference.run_until(1500)
        reference.restart_at(reference.committed)
        assert reference.run_until(LENGTH)
        reference.stamp_summary()

        assert resumed.stats.as_dict() == reference.stats.as_dict()
        assert resumed.stats.as_dict() == donor.stats.as_dict()
        assert resumed.now == reference.now

    def test_snapshot_is_isolated_from_donor(self):
        donor = make_processor()
        warm_processor(donor, donor._oracle)
        donor.run_until(1000)
        snap = ProcessorSnapshot.capture(donor, "fp")
        counters_then = dict(snap.stats_state[0])
        donor.restart_at(donor.committed)
        donor.run_until(LENGTH)
        assert dict(snap.stats_state[0]) == counters_then

    def test_snapshot_file_leaves_out_the_predictor_memo(self):
        """The trace predictor's ID memo is pure, so a pickled snapshot
        carries only the trained state."""
        donor = make_processor()
        warm_processor(donor, donor._oracle)
        donor.run_until(1500)
        live = donor.trace_predictor
        assert live._id_cache
        snap = ProcessorSnapshot.capture(donor, "fp")
        loaded = pickle.loads(pickle.dumps(snap)).trace_predictor
        assert loaded._id_cache == {}
        assert loaded.state_view() == live.state_view()
        assert loaded.snapshot_history() == live.snapshot_history()
        assert loaded._retire_history == live._retire_history


class TestManager:
    def _snap_at(self, processor, index, fingerprint="fp"):
        processor.run_until(index)
        snap = ProcessorSnapshot.capture(processor, fingerprint)
        processor.restart_at(processor.committed)
        return snap

    def test_store_latest_roundtrip(self, tmp_path):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        manager = CheckpointManager("fp", directory=tmp_path)
        manager.store(self._snap_at(processor, 600))
        loaded = manager.latest()
        assert loaded is not None and loaded.index == 600

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        manager = CheckpointManager("fp", directory=tmp_path)
        manager.store(self._snap_at(processor, 600))
        manager.store(self._snap_at(processor, 1200))
        newest = manager.path_for(1200)
        newest.write_bytes(newest.read_bytes()[:40])

        corrupt = CHECKPOINT_STATS.get("checkpoint.corrupt")
        loaded = manager.latest()
        assert loaded is not None and loaded.index == 600
        assert CHECKPOINT_STATS.get("checkpoint.corrupt") == corrupt + 1
        assert newest.with_name(newest.name + ".corrupt").exists()

    def test_all_corrupt_falls_back_to_zero(self, tmp_path):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        manager = CheckpointManager("fp", directory=tmp_path)
        manager.store(self._snap_at(processor, 600))
        manager.path_for(600).write_bytes(b"torn")
        assert manager.latest() is None

    def test_wrong_fingerprint_is_ignored(self, tmp_path):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        CheckpointManager("other", directory=tmp_path).store(
            self._snap_at(processor, 600, fingerprint="other"))
        assert CheckpointManager("fp", directory=tmp_path).latest() is None

    def test_wrong_typed_pickle_is_corrupt(self, tmp_path):
        manager = CheckpointManager("fp", directory=tmp_path)
        manager.path_for(600).write_bytes(pickle.dumps(["not", "a", "snap"]))
        assert manager.latest() is None
        assert manager.path_for(600).with_name(
            manager.path_for(600).name + ".corrupt").exists()

    def test_former_version_is_quarantined_and_run_starts_from_zero(self):
        """A version-1 snapshot (the layout before warm structures held
        per-set tuples) stored under the run's own file name is
        quarantined; the run then starts from zero, with the result of
        an uninterrupted run."""
        reference = run_simulation("w16", "gzip", max_instructions=LENGTH,
                                   checkpoint_every=1000)
        program, _, key = prep.get_oracle("gzip", LENGTH)
        manager = CheckpointManager(run_fingerprint(
            frontend_config("w16"), prep.stream_fingerprint(key, program),
            True, None, 1000))
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        stale = self._snap_at(processor, 2000, manager.fingerprint)
        stale.version = 1
        assert checkpoint.CHECKPOINT_VERSION == 3
        manager.store(stale)

        corrupt = CHECKPOINT_STATS.get("checkpoint.corrupt")
        resumed = CHECKPOINT_STATS.get("checkpoint.resumed")
        rerun = run_simulation("w16", "gzip", max_instructions=LENGTH,
                               checkpoint_every=1000)
        assert CHECKPOINT_STATS.get("checkpoint.corrupt") == corrupt + 1
        assert CHECKPOINT_STATS.get("checkpoint.resumed") == resumed
        path = manager.path_for(2000)
        assert path.with_name(path.name + ".corrupt").exists()
        assert result_identity(rerun) == result_identity(reference)

    def test_prune_keeps_newest(self, tmp_path):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        manager = CheckpointManager("fp", directory=tmp_path, keep=2)
        for index in (500, 1000, 1500, 2000):
            manager.store(self._snap_at(processor, index))
        kept = sorted(index for index, _ in manager._candidates())
        assert kept == [1500, 2000]

    def test_clear_removes_everything(self, tmp_path):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        manager = CheckpointManager("fp", directory=tmp_path)
        manager.store(self._snap_at(processor, 600))
        manager.clear()
        assert manager.latest() is None
        assert list(tmp_path.glob("*.ckpt")) == []


def _run_victim(tmp_path, extra_env, code):
    """Run *code* in a subprocess that the kill fault will ``_exit(23)``."""
    env = dict(os.environ)
    env.update(extra_env)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


class TestKillAndResume:
    """The acceptance criterion: kill mid-run, resume, compare bits."""

    CODE = ("import repro\n"
            "from repro.sampling import SamplingConfig\n"
            "repro.run_simulation("
            "{config!r}, {bench!r}, max_instructions={length}, "
            "checkpoint_every={every}, sampling={sampling})")

    @staticmethod
    def _sampling_arg(sampling):
        return (None if sampling is None
                else SamplingConfig(period=sampling[0], unit=sampling[1],
                                    warmup=sampling[2]))

    def _parity(self, tmp_path, monkeypatch, config, bench, length,
                every, sampling):
        sampling_expr = (
            "None" if sampling is None
            else "SamplingConfig(period={}, unit={}, warmup={})".format(
                *sampling))
        code = self.CODE.format(config=config, bench=bench, length=length,
                                every=every, sampling=sampling_expr)
        victim = _run_victim(tmp_path, {
            CHECKPOINT_DIR_ENV: str(tmp_path / "ckpt"),
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            FAULTS_ENV: "kill_mid_unit attempts=*",
        }, code)
        assert victim.returncode == 23, victim.stderr
        assert list((tmp_path / "ckpt").glob("*.ckpt")), \
            "the victim died before its first durable checkpoint"

        resumed_marker = CHECKPOINT_STATS.get("checkpoint.resumed")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        resumed = run_simulation(config, bench, max_instructions=length,
                                 checkpoint_every=every,
                                 sampling=self._sampling_arg(sampling))
        assert CHECKPOINT_STATS.get("checkpoint.resumed") \
            == resumed_marker + 1

        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt2"))
        reference = run_simulation(config, bench, max_instructions=length,
                                   checkpoint_every=every,
                                   sampling=self._sampling_arg(sampling))
        assert result_identity(resumed) == result_identity(reference)
        return resumed

    def test_full_detail_parity(self, tmp_path, monkeypatch):
        self._parity(tmp_path, monkeypatch, "w16", "gzip", LENGTH,
                     every=1000, sampling=None)

    def test_trace_cache_config_parity(self, tmp_path, monkeypatch):
        self._parity(tmp_path, monkeypatch, "tc", "mcf", LENGTH,
                     every=1000, sampling=None)

    def test_sampled_parity(self, tmp_path, monkeypatch):
        resumed = self._parity(tmp_path, monkeypatch, "w16", "gcc", 12000,
                               every=1500, sampling=(3, 500, 500))
        # Sampled checkpointing is perturbation-free: the resumed run
        # also matches a run that never checkpointed at all.
        plain = run_simulation("w16", "gcc", max_instructions=12000,
                               sampling=self._sampling_arg((3, 500, 500)))
        assert result_identity(resumed) == result_identity(plain)

    def test_completed_run_clears_checkpoints(self, tmp_path, monkeypatch):
        run_simulation("w16", "gzip", max_instructions=LENGTH,
                       checkpoint_every=1000)
        assert list((tmp_path / "ckpt").glob("*.ckpt")) == []

    def test_checkpoint_corrupt_fault_still_completes(self, tmp_path,
                                                      monkeypatch):
        """Every snapshot torn on write -> resume falls back to zero and
        the rerun still finishes with the uninterrupted answer."""
        code = self.CODE.format(config="w16", bench="gzip", length=LENGTH,
                                every=1000, sampling=None)
        victim = _run_victim(tmp_path, {
            CHECKPOINT_DIR_ENV: str(tmp_path / "ckpt"),
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            FAULTS_ENV: "checkpoint_corrupt keep=0.2; kill_mid_unit attempts=*",
        }, code)
        assert victim.returncode == 23, victim.stderr

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        fallback = CHECKPOINT_STATS.get("checkpoint.fallback")
        resumed = run_simulation("w16", "gzip", max_instructions=LENGTH,
                                 checkpoint_every=1000)
        assert CHECKPOINT_STATS.get("checkpoint.fallback") > fallback

        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt2"))
        reference = run_simulation("w16", "gzip", max_instructions=LENGTH,
                                   checkpoint_every=1000)
        assert result_identity(resumed) == result_identity(reference)


class TestSweepJobCadence:
    def test_cadence_joins_cache_key_only_when_set(self):
        plain = SweepJob("w16", "gzip", LENGTH)
        cadenced = SweepJob("w16", "gzip", LENGTH, checkpoint=1000)
        assert plain.cache_key() != cadenced.cache_key()
        assert SweepJob("w16", "gzip", LENGTH, checkpoint=None).cache_key() \
            == plain.cache_key()

    def test_describe_mentions_cadence(self):
        assert "ckpt=1000" in SweepJob("w16", "gzip", LENGTH,
                                       checkpoint=1000).describe()
        assert "ckpt" not in SweepJob("w16", "gzip", LENGTH).describe()


class TestSeamEdges:
    """Satellite: ``run_until`` / ``restart_at`` edge cases."""

    def test_stop_at_past_end_of_stream_clamps(self):
        processor = make_processor(length=1000)
        warm_processor(processor, processor._oracle)
        assert processor.run_until(10 ** 9)
        assert processor.committed == processor.stream_length == 1000

    def test_restart_at_zero_replays_from_scratch(self):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        assert processor.run_until(800)
        processor.restart_at(0)
        assert processor.committed == 0
        assert processor.run_until(800)
        assert processor.committed == 800

    def test_back_to_back_restarts(self):
        processor = make_processor()
        warm_processor(processor, processor._oracle)
        processor.run_until(500)
        processor.restart_at(500)
        processor.restart_at(500)
        assert processor.committed == 500
        assert processor.run_until(900)
        assert processor.committed == 900

    def test_restart_after_deadlock_error_recovers(self):
        config = frontend_config("w16")
        program, result, _ = prep.get_oracle("gzip", LENGTH)
        strangled = Processor(config, program, result.stream,
                              watchdog=PipelineWatchdog(stall_limit=1),
                              invariants=None)
        warm_processor(strangled, result.stream)
        with pytest.raises(DeadlockError):
            strangled.run_until(LENGTH)
        committed = strangled.committed
        strangled.watchdog = None        # operator widens the window...
        strangled.restart_at(committed)  # ...and resumes mid-stream
        assert strangled.run_until(min(committed + 500, LENGTH))
        assert strangled.committed == min(committed + 500, LENGTH)

    def test_restart_at_rejects_stream_length(self):
        processor = make_processor(length=1000)
        with pytest.raises(SimulationError):
            processor.restart_at(1000)
