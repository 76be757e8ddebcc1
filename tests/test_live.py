"""Tests for live telemetry and attach (:mod:`repro.obs.live`,
:mod:`repro.obs.attach`) plus the observability satellites that ride
along: sweep fleet telemetry, checkpoint timing counters, and the phase
profiler under the interval-sampled engine.

The load-bearing property throughout: telemetry is read-only — a run
with a publisher attached is bit-identical (cycles, committed and every
counter) to the same run without one, in full-detail, sampled and
checkpointed modes alike.
"""

import json
import os

import pytest

from repro.config import LiveConfig
from repro.core.simulation import run_simulation
from repro.errors import ConfigError
from repro.obs import LiveTelemetry, SweepFleet, read_snapshots, \
    validate_snapshot
from repro.obs.attach import (
    FileSource,
    bar,
    render_fleet_lines,
    render_lines,
    resolve_source,
    snapshot_once,
    sparkline,
)
from repro.obs.live import SCHEMA_VERSION, default_path, default_sweep_path
from repro.sampling import SamplingConfig

CONFIG = "pr-2x8w"
BENCH = "gzip"
N = 1500


@pytest.fixture(autouse=True)
def no_ambient_live(monkeypatch):
    """Keep every test hermetic against inherited REPRO_LIVE* knobs."""
    for name in ("REPRO_LIVE", "REPRO_LIVE_PATH", "REPRO_LIVE_EVERY"):
        monkeypatch.delenv(name, raising=False)


class TestLiveConfig:
    def test_from_env_defaults_off(self):
        assert LiveConfig.from_env() is None

    def test_enabled_by_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE", "1")
        config = LiveConfig.from_env()
        assert config is not None
        assert config.path is None and config.every == 1000

    def test_path_implies_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE_PATH", "/tmp/x.ndjson")
        config = LiveConfig.from_env()
        assert config is not None and config.path == "/tmp/x.ndjson"

    def test_cadence_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE", "true")
        monkeypatch.setenv("REPRO_LIVE_EVERY", "250")
        assert LiveConfig.from_env().every == 250

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            LiveConfig(every=0)
        with pytest.raises(ConfigError):
            LiveConfig(history=0)


class TestSnapshotSchema:
    def _valid(self):
        return {"v": SCHEMA_VERSION, "seq": 0, "pid": 1,
                "state": "running", "mode": "full", "cycle": 10,
                "committed": 5, "ipc": 0.5,
                "gauges": {"window.used": 3.0}, "wall": 0.1}

    def test_valid_snapshot_passes(self):
        assert validate_snapshot(self._valid()) == []

    def test_missing_keys_reported(self):
        snapshot = self._valid()
        del snapshot["gauges"]
        problems = validate_snapshot(snapshot)
        assert problems and "gauges" in problems[0]

    def test_wrong_version_and_state(self):
        snapshot = self._valid()
        snapshot["v"] = 99
        snapshot["state"] = "paused"
        problems = "\n".join(validate_snapshot(snapshot))
        assert "version" in problems and "paused" in problems

    def test_negative_counters_rejected(self):
        snapshot = self._valid()
        snapshot["committed"] = -1
        assert validate_snapshot(snapshot)

    def test_non_dict_rejected(self):
        assert validate_snapshot([1, 2]) == ["snapshot is not a JSON object"]

    def test_read_snapshots_missing_file(self, tmp_path):
        assert read_snapshots(str(tmp_path / "absent.ndjson")) == []

    def test_read_snapshots_skips_garbage(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"seq": 0}\nnot json\n[1]\n{"seq": 1}\n')
        assert read_snapshots(str(path)) == [{"seq": 0}, {"seq": 1}]


def _strip_obs(counters):
    return {name: value for name, value in counters.items()
            if not name.startswith("obs.")}


class TestBitIdentity:
    """The acceptance criterion: REPRO_LIVE on/off changes nothing."""

    def _snapshots(self, path):
        snapshots = read_snapshots(str(path))
        assert snapshots, "publisher wrote no snapshots"
        for snapshot in snapshots:
            assert validate_snapshot(snapshot) == []
        seqs = [s["seq"] for s in snapshots]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        committed = [s["committed"] for s in snapshots]
        assert committed == sorted(committed)
        assert snapshots[-1]["state"] == "done"
        return snapshots

    def test_full_detail(self, tmp_path, monkeypatch):
        baseline = run_simulation(CONFIG, BENCH, max_instructions=N)
        path = tmp_path / "live.ndjson"
        monkeypatch.setenv("REPRO_LIVE_PATH", str(path))
        monkeypatch.setenv("REPRO_LIVE_EVERY", "100")
        live = run_simulation(CONFIG, BENCH, max_instructions=N)
        assert live.cycles == baseline.cycles
        assert live.committed == baseline.committed
        assert live.counters == baseline.counters
        snapshots = self._snapshots(path)
        assert all(s["mode"] == "full" for s in snapshots)
        assert snapshots[-1]["committed"] == baseline.committed

    def test_sampled(self, tmp_path, monkeypatch):
        sampling = SamplingConfig(period=3, unit=400, warmup=100)
        baseline = run_simulation(CONFIG, BENCH, max_instructions=6000,
                                  sampling=sampling)
        path = tmp_path / "live.ndjson"
        monkeypatch.setenv("REPRO_LIVE", "1")
        monkeypatch.setenv("REPRO_LIVE_PATH", str(path))
        live = run_simulation(CONFIG, BENCH, max_instructions=6000,
                              sampling=sampling)
        assert live.cycles == baseline.cycles
        assert live.committed == baseline.committed
        assert live.counters == baseline.counters
        snapshots = self._snapshots(path)
        assert all(s["mode"] == "sampled" for s in snapshots)
        final = snapshots[-1]
        assert final["sampling"]["units_total"] >= final["sampling"]["unit"]
        assert "cpi_mean" in final["sampling"]

    def test_checkpointed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR",
                           str(tmp_path / "ckpt_base"))
        baseline = run_simulation(CONFIG, BENCH, max_instructions=N,
                                  checkpoint_every=500)
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR",
                           str(tmp_path / "ckpt_live"))
        path = tmp_path / "live.ndjson"
        live = run_simulation(CONFIG, BENCH, max_instructions=N,
                              checkpoint_every=500,
                              live=LiveConfig(path=str(path), every=100))
        assert live.cycles == baseline.cycles
        assert live.counters == baseline.counters
        snapshots = self._snapshots(path)
        assert snapshots[-1]["checkpoint"] is not None

    def test_explicit_true_uses_default_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_simulation(CONFIG, BENCH, max_instructions=N,
                                live=True)
        assert result.committed > 0
        assert read_snapshots(default_path())


class TestLiveTelemetryUnit:
    def test_ring_bounded_by_history(self, tmp_path):
        path = str(tmp_path / "ring.ndjson")
        telemetry = LiveTelemetry(LiveConfig(path=path, every=1,
                                             history=5))
        processor = _processor()
        for _ in range(12):
            telemetry.publish(processor)
        assert len(read_snapshots(path)) == 5

    def test_notes_ride_along(self, tmp_path):
        path = str(tmp_path / "n.ndjson")
        telemetry = LiveTelemetry(LiveConfig(path=path))
        telemetry.note_checkpoint(3)
        telemetry.note_sampling(unit=2, units_total=9)
        telemetry.publish(_processor())
        snapshot = read_snapshots(path)[-1]
        assert snapshot["checkpoint"] == 3
        assert snapshot["sampling"] == {"unit": 2, "units_total": 9}

    def test_write_failure_is_swallowed(self, tmp_path):
        target = tmp_path / "dir.ndjson"
        target.mkdir()  # os.replace onto a directory fails
        telemetry = LiveTelemetry(LiveConfig(path=str(target)))
        telemetry.publish(_processor())  # must not raise
        assert not list(tmp_path.glob("*.tmp.*")), "tmp file leaked"


def _processor():
    """A tiny real processor mid-run, for publisher unit tests."""
    from repro.config import frontend_config
    from repro.core.processor import Processor
    from repro.sampling import prep

    program, execution, _ = prep.get_oracle(BENCH, 400)
    processor = Processor(frontend_config(CONFIG), program,
                          execution.stream)
    processor.run_until(200)
    return processor


class TestSweepFleet:
    class _Result:
        committed = 1000
        cycles = 500
        ipc = 2.0

    class _Job:
        @staticmethod
        def describe():
            return "cfg/bench/n=1"

    def test_hooks_accumulate(self, tmp_path):
        fleet = SweepFleet(LiveConfig(path=str(tmp_path / "f.ndjson")),
                           jobs_total=4, tag="t1")
        fleet.note_done(self._Job(), self._Result(), 1.5)
        fleet.observe("cached", self._Job(), {"source": "disk"})
        fleet.observe("retry", self._Job(), {"attempt": 2})
        fleet.observe("failure", self._Job(), {"error": "Boom"})
        snapshot = fleet.snapshot("done")
        assert snapshot["jobs_done"] == 1
        assert snapshot["cache_hits"] == 1
        assert snapshot["retries"] == 1
        assert snapshot["jobs_failed"] == 1
        assert snapshot["committed"] == 1000
        assert snapshot["ipc"] == 2.0
        statuses = {row["status"] for row in snapshot["jobs"]}
        assert {"done", "disk", "FAILED:Boom"} <= statuses

    def test_publishes_readable_file(self, tmp_path):
        path = str(tmp_path / "fleet.ndjson")
        fleet = SweepFleet(LiveConfig(path=path), jobs_total=2)
        fleet.publish()
        fleet.note_done(self._Job(), self._Result(), 0.5)
        fleet.publish_final()
        snapshots = read_snapshots(path)
        assert [s["seq"] for s in snapshots] == sorted(
            s["seq"] for s in snapshots)
        assert snapshots[-1]["state"] == "done"
        assert snapshots[-1]["jobs_total"] == 2

    def test_render_fleet_lines(self, tmp_path):
        fleet = SweepFleet(LiveConfig(path=str(tmp_path / "f.ndjson")),
                           jobs_total=3, tag="sweep-x")
        fleet.note_done(self._Job(), self._Result(), 0.5)
        lines = render_fleet_lines(fleet.snapshot(), fleet.history())
        text = "\n".join(lines)
        assert "sweep-x" in text and "1/3" in text
        assert "executed=1" in text and "cfg/bench/n=1" in text
        # render_lines must delegate fleet-shaped snapshots.
        assert render_lines(fleet.snapshot(), [])[0].startswith("fleet")


class TestRunSweepObserver:
    def test_observer_sees_cache_hits_and_survives_errors(self, tmp_path):
        from repro.experiments.runner import (
            ResultCache,
            SWEEP_STATS,
            SweepJob,
            run_sweep,
        )
        cache = ResultCache(directory=str(tmp_path / "cache"))
        jobs = [SweepJob(CONFIG, BENCH, 400)]
        events = []

        def observer(kind, job, info):
            events.append((kind, info.get("source")))
            raise RuntimeError("observer bug")  # must never fail a sweep

        first = run_sweep(jobs, workers=1, cache=cache, observer=observer)
        assert not first.failures and events == []
        errors = SWEEP_STATS.get("sweep.observer_errors")
        second = run_sweep(jobs, workers=1, cache=cache,
                           observer=observer)
        assert not second.failures
        assert events == [("cached", "disk")]
        assert SWEEP_STATS.get("sweep.observer_errors") > errors


class TestAttachSources:
    def test_file_source_tracks_seq(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"seq": 0}\n{"seq": 1}\n')
        source = FileSource(str(path))
        assert [s["seq"] for s in source.poll()] == [0, 1]
        assert source.poll() == []  # nothing new
        path.write_text('{"seq": 1}\n{"seq": 2}\n')
        assert [s["seq"] for s in source.poll()] == [2]

    def test_resolve_pid_prefers_run_then_sweep(self, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert resolve_source("1234").path == default_path(1234)
        os.makedirs(os.path.dirname(default_sweep_path(1234)),
                    exist_ok=True)
        with open(default_sweep_path(1234), "w") as handle:
            handle.write("{}\n")
        assert resolve_source("1234").path == default_sweep_path(1234)

    def test_resolve_path_verbatim(self):
        assert resolve_source("some/file.ndjson").path == \
            "some/file.ndjson"

    def test_snapshot_once_validates_simulation_shape(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"seq": 0, "gauges": {}}\n')
        newest, problems = snapshot_once(FileSource(str(path)))
        assert newest["seq"] == 0 and problems  # missing required keys

    def test_snapshot_once_fleet_shape_skips_validator(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"seq": 0, "jobs_done": 1}\n')
        newest, problems = snapshot_once(FileSource(str(path)))
        assert newest and problems == []


class TestRendering:
    def test_sparkline_and_bar(self):
        assert len(sparkline([1.0, 2.0, 3.0], 10)) == 10
        assert sparkline([], 5) == " " * 5
        assert bar(0, 10, 8) == "[--------]"
        assert bar(10, 10, 8) == "[########]"
        assert bar(5, 0, 4).count("#") == 4  # limitless clamps to value

    def test_render_simulation_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "live.ndjson"
        monkeypatch.setenv("REPRO_LIVE_PATH", str(path))
        monkeypatch.setenv("REPRO_LIVE_EVERY", "100")
        run_simulation(CONFIG, BENCH, max_instructions=N)
        snapshots = read_snapshots(str(path))
        text = "\n".join(render_lines(snapshots[-1], snapshots))
        assert f"{CONFIG}/{BENCH}" in text and "[done]" in text
        assert "fragbuf.occupancy" in text and "window.used" in text
        assert "IPC" in text


class TestAttachCli:
    def _publish(self, tmp_path, monkeypatch):
        path = tmp_path / "live.ndjson"
        monkeypatch.setenv("REPRO_LIVE_PATH", str(path))
        monkeypatch.setenv("REPRO_LIVE_EVERY", "100")
        run_simulation(CONFIG, BENCH, max_instructions=N)
        return path

    def test_once_json_valid_snapshot(self, tmp_path, monkeypatch,
                                      capsys):
        from repro.__main__ import main
        path = self._publish(tmp_path, monkeypatch)
        assert main(["attach", str(path), "--once", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert validate_snapshot(snapshot) == []
        assert snapshot["state"] == "done"

    def test_once_text(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        path = self._publish(tmp_path, monkeypatch)
        assert main(["attach", str(path), "--once"]) == 0
        assert "committed" in capsys.readouterr().out

    def test_missing_telemetry_exit_code(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["attach", str(tmp_path / "nope.ndjson"),
                     "--once", "--json"]) == 2


class TestCheckpointTimers:
    def test_store_and_load_timed(self, tmp_path, monkeypatch):
        from repro.checkpoint import CHECKPOINT_STATS
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        before = {name: CHECKPOINT_STATS.get(name) for name in
                  ("checkpoint.store_seconds", "checkpoint.bytes",
                   "checkpoint.load_seconds")}
        run_simulation(CONFIG, BENCH, max_instructions=N,
                       checkpoint_every=500)
        assert CHECKPOINT_STATS.get("checkpoint.store_seconds") > \
            before["checkpoint.store_seconds"]
        assert CHECKPOINT_STATS.get("checkpoint.bytes") > \
            before["checkpoint.bytes"]

    def test_load_timed(self, tmp_path):
        # A completed run clears its snapshots, so drive the restore
        # path directly: store one snapshot, read it back.
        from repro.checkpoint import (
            CHECKPOINT_STATS,
            CheckpointManager,
            ProcessorSnapshot,
        )
        manager = CheckpointManager("fp-live-test",
                                    directory=tmp_path)
        snapshot = ProcessorSnapshot.capture(_processor(),
                                            manager.fingerprint)
        manager.store(snapshot, ordinal=0)
        before = CHECKPOINT_STATS.get("checkpoint.load_seconds")
        assert manager.latest() is not None
        assert CHECKPOINT_STATS.get("checkpoint.load_seconds") > before


class TestProfilerUnderSampledEngine:
    """Satellite: the phase profiler stays live across the sampled
    engine's run_until/restart_at resumes and gap fast-forwards."""

    SAMPLING = SamplingConfig(period=3, unit=400, warmup=100)

    def test_profiler_counters_present_and_identity_held(self):
        from repro.config import ObservabilityConfig
        from repro.obs import Observability

        baseline = run_simulation(CONFIG, BENCH, max_instructions=6000,
                                  sampling=self.SAMPLING)
        obs = Observability(ObservabilityConfig(profile=True))
        profiled = run_simulation(CONFIG, BENCH, max_instructions=6000,
                                  sampling=self.SAMPLING,
                                  observability=obs)
        assert profiled.cycles == baseline.cycles
        assert profiled.committed == baseline.committed
        assert _strip_obs(profiled.counters) == baseline.counters
        # Detailed phases accumulated across every measured unit...
        for phase in ("execute", "commit", "rename", "fetch"):
            assert profiled.counter(f"obs.profile.{phase}.calls") > 0
        # ...and the functional gap warming is attributed too.
        assert profiled.counter("obs.profile.warm.calls") > 0
        assert profiled.counter("obs.profile.total_seconds") > 0
