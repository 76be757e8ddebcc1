"""Crash-safety and concurrency tests for the persistent result cache:
orphaned-tmp reaping, racing clears, and a multi-process hammer over
one shared directory."""

import json
import multiprocessing
import os
import pathlib
import time

import pytest

from repro.core.simulation import SimulationResult
from repro.experiments import runner
from repro.experiments.runner import ResultCache, SweepJob
from repro.stats import StatsCollector

LENGTH = 1500


def make_result(**kwargs):
    defaults = dict(benchmark="gzip", config_name="w16", cycles=100,
                    committed=400, counters={"fetch.insts": 600.0})
    defaults.update(kwargs)
    return SimulationResult(**defaults)


def seed_entries(cache, count, start=0):
    """Store *count* distinct entries; returns their keys in order."""
    keys = []
    for index in range(start, start + count):
        job = SweepJob("w16", "gzip", LENGTH + index)
        key = job.cache_key()
        cache.store(key, job, make_result(cycles=100 + index))
        keys.append(key)
    return keys


class TestStaleTmpReaping:
    def _orphan(self, directory, name, age):
        path = directory / name
        path.write_text("half a write")
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def test_reap_is_age_gated(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = self._orphan(tmp_path, "aaaa.tmp.999-0", age=3600)
        fresh = self._orphan(tmp_path, "bbbb.tmp.999-1", age=1)
        stats = StatsCollector()
        assert cache.reap_stale_tmp(stats=stats) == 1
        assert not stale.exists()
        assert fresh.exists()  # an in-flight write is never touched
        assert stats.get("sweep.cache_tmp_reaped") == 1

    def test_open_sweeps_stale_orphans(self, tmp_path, monkeypatch):
        # A fresh directory key, so the per-process rate limit is cold.
        monkeypatch.setattr(runner, "_LAST_REAP", {})
        stale = self._orphan(tmp_path, "cccc.tmp.999-0", age=3600)
        ResultCache(tmp_path)
        assert not stale.exists()

    def test_open_reap_is_rate_limited(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_LAST_REAP", {})
        ResultCache(tmp_path)  # records the sweep time for this dir
        stale = self._orphan(tmp_path, "dddd.tmp.999-0", age=3600)
        ResultCache(tmp_path)  # within the rate-limit window: no scan
        assert stale.exists()

    def test_clear_reaps_stale_but_spares_inflight(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = self._orphan(tmp_path, "eeee.tmp.999-0", age=3600)
        fresh = self._orphan(tmp_path, "eeee.tmp.999-1", age=0)
        cache.clear()
        assert not stale.exists()
        # A live writer's in-flight tmp must survive a concurrent clear
        # or its atomic rename would blow up (see the hammer test).
        assert fresh.exists()

    def test_store_losing_race_to_sweeper_is_quiet(self, tmp_path,
                                                   monkeypatch):
        """If an external sweeper unlinks our tmp before the rename,
        store() drops the entry silently instead of failing the job."""
        cache = ResultCache(tmp_path)
        job = SweepJob("w16", "gzip", LENGTH)

        original = runner.os.replace

        def sweeper_wins(src, dst):
            os.unlink(src)
            return original(src, dst)  # now raises FileNotFoundError

        monkeypatch.setattr(runner.os, "replace", sweeper_wins)
        stats = StatsCollector()
        cache.store(job.cache_key(), job, make_result(), stats=stats)
        monkeypatch.undo()
        assert stats.get("sweep.cache_store_lost") == 1
        assert cache.load(job.cache_key()) is None

    def test_failed_store_leaves_no_tmp(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        job = SweepJob("w16", "gzip", LENGTH)

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(runner.os, "replace", explode)
        with pytest.raises(OSError):
            cache.store(job.cache_key(), job, make_result())
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert len(cache) == 0

    def test_concurrent_stores_use_distinct_tmp_names(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SweepJob("w16", "gzip", LENGTH)
        key = job.cache_key()
        seen = set()
        original = runner.os.replace

        def spy(src, dst):
            seen.add(str(src))
            return original(src, dst)

        try:
            runner.os.replace = spy
            cache.store(key, job, make_result())
            cache.store(key, job, make_result())
        finally:
            runner.os.replace = original
        assert len(seen) == 2  # same key, same pid, distinct tmp files


class TestClearRaces:
    def test_clear_tolerates_vanishing_entries(self, tmp_path,
                                               monkeypatch):
        """A second process may delete entries between our listing and
        our unlink; clear() must skip them, not crash."""
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 3)
        original_glob = pathlib.Path.glob

        def racing_glob(self, pattern):
            for path in original_glob(self, pattern):
                if path.stem.startswith(keys[0]):
                    path.unlink()  # the "other process" wins the race
                yield path

        monkeypatch.setattr(pathlib.Path, "glob", racing_glob)
        removed = cache.clear()
        monkeypatch.undo()
        assert removed == 2  # only the entries *we* actually deleted
        assert len(cache) == 0

    def test_concurrent_clear_of_quarantined_files(self, tmp_path,
                                                   monkeypatch):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 1)
        corpse = tmp_path / ("0" * 64 + ".json.corrupt")
        corpse.write_text("{broken")
        original_glob = pathlib.Path.glob

        def racing_glob(self, pattern):
            for path in original_glob(self, pattern):
                if path.name.endswith(".corrupt"):
                    path.unlink()
                yield path

        monkeypatch.setattr(pathlib.Path, "glob", racing_glob)
        assert cache.clear() == 1  # no FileNotFoundError escape


# ---------------------------------------------------------------------------
# Multi-process hammer

HAMMER_OPS = 60
HAMMER_KEYS = 8


def _hammer_job(index):
    return SweepJob("w16", "gzip", LENGTH + index)


def _hammer_worker(directory, worker_id, failures):
    """Mixed store/load/clear traffic; any inconsistency is reported."""
    import random
    rng = random.Random(worker_id)
    cache = ResultCache(directory)
    try:
        for op in range(HAMMER_OPS):
            index = rng.randrange(HAMMER_KEYS)
            job = _hammer_job(index)
            key = job.cache_key()
            roll = rng.random()
            if roll < 0.55:
                cache.store(key, job, make_result(cycles=100 + index))
            elif roll < 0.92:
                result = cache.load(key)
                # A miss is legal (cleared / not yet written); a hit
                # must carry exactly the payload keyed to this job.
                if result is not None and result.cycles != 100 + index:
                    failures.put(f"worker {worker_id}: corrupt read "
                                 f"for key {index}: {result.cycles}")
            else:
                cache.clear()
    except BaseException as exc:  # noqa: BLE001 - report, don't hang
        failures.put(f"worker {worker_id}: {type(exc).__name__}: {exc}")


class TestMultiProcessHammer:
    def test_shared_directory_hammer(self, tmp_path):
        """N processes store/load/clear one directory concurrently:
        no crashes, no torn or mismatched reads, no quarantine events,
        and a deterministic final state after re-seeding."""
        directory = tmp_path / "shared"
        failures = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(target=_hammer_worker,
                                    args=(str(directory), worker_id,
                                          failures))
            for worker_id in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        errors = []
        while not failures.empty():
            errors.append(failures.get())
        assert errors == []
        # Torn writes would have been quarantined as *.corrupt.
        assert list(directory.glob("*.corrupt")) == []
        assert list(directory.glob("*.tmp.*")) == []
        # The directory is still fully usable: clear, re-seed, verify.
        cache = ResultCache(directory)
        cache.clear()
        assert len(cache) == 0
        seed_entries(cache, HAMMER_KEYS)
        assert len(cache) == HAMMER_KEYS
        for index in range(HAMMER_KEYS):
            job = _hammer_job(index)
            loaded = cache.load(job.cache_key())
            # seed_entries uses LENGTH+index jobs with cycles=100+index
            assert loaded is not None and loaded.cycles == 100 + index

    def test_hammer_entries_are_valid_json(self, tmp_path):
        """Every surviving entry parses and round-trips."""
        directory = tmp_path / "shared"
        failures = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(target=_hammer_worker,
                                    args=(str(directory), worker_id,
                                          failures))
            for worker_id in (10, 11)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
        for path in directory.glob("*.json"):
            payload = json.loads(path.read_text())
            assert payload["schema"] == runner.CACHE_SCHEMA_VERSION
            assert "result" in payload
