"""Tests for durable sweep manifests (``repro.experiments.manifest``)."""

import json

import pytest

from repro.experiments import manifest as manifests
from repro.experiments.runner import CACHE_DIR_ENV, SweepJob
from repro.experiments.manifest import (
    ManifestError,
    job_from_wire,
    job_to_wire,
    jobs_from_wire,
    latest_manifest,
    list_manifests,
    load_manifest,
    mark_complete,
    sweep_id_for,
    write_manifest,
)

LENGTH = 400


@pytest.fixture(autouse=True)
def manifest_tmpdir(monkeypatch, tmp_path):
    """Point the default manifest dir at a per-test scratch cache."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))


def make_jobs():
    return [SweepJob("w16", "gzip", LENGTH, checkpoint=200),
            SweepJob("tc", "mcf", LENGTH, sampling=(4, 100, 100))]


class TestJobWire:
    def test_round_trip_minimal(self):
        job = SweepJob("w16", "gzip", LENGTH)
        assert job_from_wire(job_to_wire(job)) == job

    def test_round_trip_every_field(self):
        job = SweepJob("pf-2x8w", "mcf", LENGTH, total_l1_storage=8192,
                       predictor_entries=4096,
                       overrides=(("fragment.max_length", 32),
                                  ("frontend.num_fragment_buffers", 8)),
                       warm=False, label="alias",
                       sampling=(5000, 1000, 300))
        decoded = job_from_wire(job_to_wire(job))
        assert decoded == job
        assert decoded.cache_key() == job.cache_key()

    def test_wire_form_is_json_safe(self):
        job = SweepJob("w16", "gzip", LENGTH, sampling=(5000, 1000, 300))
        assert job_from_wire(json.loads(json.dumps(job_to_wire(job)))) == job

    def test_single_object_becomes_list(self):
        jobs = jobs_from_wire(job_to_wire(SweepJob("w16", "gzip", LENGTH)))
        assert len(jobs) == 1

    @pytest.mark.parametrize("payload", [
        None,
        [],
        "w16",
        {"benchmark": "gzip", "length": LENGTH},              # no config
        {"config_name": "w16", "benchmark": "gzip"},          # no length
        {"config_name": "w16", "benchmark": "gzip", "length": 0},
        {"config_name": "w16", "benchmark": "gzip", "length": True},
        {"config_name": "w16", "benchmark": "gzip", "length": LENGTH,
         "bogus": 1},
        {"config_name": "w16", "benchmark": "gzip", "length": LENGTH,
         "overrides": [["only-a-path"]]},
        {"config_name": "w16", "benchmark": "gzip", "length": LENGTH,
         "overrides": [["path", {"nested": 1}]]},
        {"config_name": "w16", "benchmark": "gzip", "length": LENGTH,
         "sampling": [5000, 1000]},
        {"config_name": "w16", "benchmark": "gzip", "length": LENGTH,
         "sampling": [5000, 1000, "warm"]},
        {"config_name": "w16", "benchmark": "gzip", "length": LENGTH,
         "warm": "yes"},
        {"config_name": "w16", "benchmark": "gzip", "length": LENGTH,
         "label": 7},
    ])
    def test_malformed_jobs_rejected(self, payload):
        with pytest.raises(ManifestError):
            jobs_from_wire(payload)


class TestJobWireCheckpoint:
    def test_checkpoint_round_trips(self):
        job = SweepJob("w16", "gzip", LENGTH, checkpoint=500)
        decoded = job_from_wire(json.loads(json.dumps(job_to_wire(job))))
        assert decoded == job
        assert decoded.cache_key() == job.cache_key()

    def test_unset_checkpoint_stays_off_the_wire(self):
        assert "checkpoint" not in job_to_wire(SweepJob("w16", "gzip",
                                                        LENGTH))

    @pytest.mark.parametrize("value", [0, -100, True, "soon", 1.5])
    def test_bad_checkpoint_rejected(self, value):
        with pytest.raises(ManifestError):
            job_from_wire({"config_name": "w16", "benchmark": "gzip",
                           "length": LENGTH, "checkpoint": value})


class TestSweepId:
    def test_content_addressed_and_order_independent(self):
        jobs = make_jobs()
        assert sweep_id_for(jobs) == sweep_id_for(list(reversed(jobs)))

    def test_different_matrices_differ(self):
        assert sweep_id_for(make_jobs()) != sweep_id_for(
            [SweepJob("w16", "gzip", LENGTH)])

    def test_cadence_changes_identity(self):
        assert sweep_id_for([SweepJob("w16", "gzip", LENGTH)]) \
            != sweep_id_for([SweepJob("w16", "gzip", LENGTH,
                                      checkpoint=200)])


class TestRoundTrip:
    def test_write_load_preserves_jobs(self):
        jobs = make_jobs()
        written = write_manifest(jobs, options={"workers": 2})
        loaded = load_manifest(written.sweep_id)
        assert loaded.jobs == jobs
        assert loaded.options == {"workers": 2}
        assert not loaded.completed
        assert loaded.created == pytest.approx(written.created)

    def test_mark_complete_round_trips(self):
        written = write_manifest(make_jobs())
        mark_complete(written)
        assert load_manifest(written.sweep_id).completed

    def test_missing_manifest_raises(self):
        with pytest.raises(ManifestError):
            load_manifest("nope")

    def test_rewrite_same_matrix_reuses_id(self):
        first = write_manifest(make_jobs())
        second = write_manifest(make_jobs())
        assert first.sweep_id == second.sweep_id
        assert len(list_manifests()) == 1


class TestLatest:
    def test_latest_skips_completed(self, monkeypatch):
        done = write_manifest([SweepJob("w16", "gzip", LENGTH)])
        mark_complete(done)
        live = write_manifest(make_jobs())
        # Force distinct created stamps regardless of clock resolution.
        live.created = done.created + 60.0
        manifests._write(live)
        picked = latest_manifest()
        assert picked is not None and picked.sweep_id == live.sweep_id

    def test_no_incomplete_manifest_means_none(self):
        mark_complete(write_manifest(make_jobs()))
        assert latest_manifest() is None


class TestCorruption:
    def test_torn_manifest_quarantined(self):
        written = write_manifest(make_jobs())
        path = written.path()
        path.write_text(path.read_text()[:25])
        with pytest.raises(ManifestError):
            load_manifest(written.sweep_id)
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()

    def test_wrong_schema_is_corrupt(self):
        written = write_manifest(make_jobs())
        path = written.path()
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError):
            load_manifest(written.sweep_id)

    def test_malformed_job_entry_quarantined(self):
        written = write_manifest(make_jobs())
        path = written.path()
        payload = json.loads(path.read_text())
        payload["jobs"][1]["length"] = "long"
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="length"):
            load_manifest(written.sweep_id)
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()

    def test_list_skips_corrupt_entries(self):
        keep = write_manifest(make_jobs())
        broken = write_manifest([SweepJob("w16", "mcf", LENGTH)])
        broken.path().write_text("{")
        listed = list_manifests()
        assert [m.sweep_id for m in listed] == [keep.sweep_id]
