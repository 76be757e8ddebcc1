"""Tests for the parallel sweep runner and its persistent result cache."""

import json
import multiprocessing
import time

import pytest

from repro import faults
from repro.core.simulation import SimulationResult
from repro.errors import SweepError
from repro.experiments.runner import (
    CACHE_SCHEMA_VERSION,
    GROUP_ENV,
    JobFailure,
    ResultCache,
    SweepJob,
    default_group_streams,
    default_job_timeout,
    default_retries,
    default_workers,
    parallel_map,
    run_job,
    run_sweep,
)

LENGTH = 1500


@pytest.fixture(autouse=True)
def no_ambient_faults(monkeypatch):
    """Keep every test hermetic against an inherited REPRO_FAULTS."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)


def make_result(**kwargs):
    defaults = dict(benchmark="gzip", config_name="w16", cycles=100,
                    committed=400, counters={"fetch.insts": 600.0})
    defaults.update(kwargs)
    return SimulationResult(**defaults)


class TestSweepJob:
    def test_hashable_and_equal_by_value(self):
        a = SweepJob("w16", "gzip", LENGTH)
        b = SweepJob("w16", "gzip", LENGTH)
        assert a == b and hash(a) == hash(b)

    def test_cache_key_stable(self):
        a = SweepJob("w16", "gzip", LENGTH)
        b = SweepJob("w16", "gzip", LENGTH)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_every_field(self):
        base = SweepJob("w16", "gzip", LENGTH)
        variants = [
            SweepJob("tc", "gzip", LENGTH),
            SweepJob("w16", "mcf", LENGTH),
            SweepJob("w16", "gzip", LENGTH + 1),
            SweepJob("w16", "gzip", LENGTH, total_l1_storage=8192),
            SweepJob("w16", "gzip", LENGTH, predictor_entries=4096),
            SweepJob("w16", "gzip", LENGTH,
                     overrides=(("frontend.num_fragment_buffers", 8),)),
            SweepJob("w16", "gzip", LENGTH, warm=False),
            SweepJob("w16", "gzip", LENGTH, label="other"),
        ]
        keys = {job.cache_key() for job in variants}
        assert base.cache_key() not in keys
        assert len(keys) == len(variants)

    def test_build_config_applies_overrides(self):
        job = SweepJob("pf-2x8w", "gzip", LENGTH,
                       overrides=(("frontend.num_fragment_buffers", 8),
                                  ("fragment.max_length", 32)))
        config = job.build_config()
        assert config.frontend.num_fragment_buffers == 8
        assert config.fragment.max_length == 32

    def test_describe_mentions_overrides(self):
        job = SweepJob("w16", "gzip", LENGTH, total_l1_storage=8192,
                       overrides=(("fragment.max_length", 32),))
        text = job.describe()
        assert "w16" in text and "gzip" in text
        assert "l1=8KB" in text and "fragment.max_length=32" in text


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        result = make_result()
        cache.store("k1", SweepJob("w16", "gzip", LENGTH), result)
        loaded = cache.load("k1")
        assert loaded is not None and loaded is not result
        assert loaded == result

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path, enabled=True).load("nope") is None

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        cache.store("k1", SweepJob("w16", "gzip", LENGTH), make_result())
        assert len(ResultCache(tmp_path, enabled=True)) == 0
        assert cache.load("k1") is None

    def test_no_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert not ResultCache().enabled

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = ResultCache()
        assert cache.directory == tmp_path / "alt"
        assert cache.enabled

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.store("k1", SweepJob("w16", "gzip", LENGTH), make_result())
        path = tmp_path / "k1.json"
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.load("k1") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        (tmp_path / "k1.json").write_text("{not json")
        assert ResultCache(tmp_path, enabled=True).load("k1") is None

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        """A broken entry must be renamed aside (and counted), not left
        in place to be re-parsed unsuccessfully on every future run."""
        from repro.stats import StatsCollector
        (tmp_path / "k1.json").write_text("{not json")
        cache = ResultCache(tmp_path, enabled=True)
        stats = StatsCollector()
        assert cache.load("k1", stats=stats) is None
        assert not (tmp_path / "k1.json").exists()
        assert (tmp_path / "k1.json.corrupt").read_text() == "{not json"
        assert stats.get("sweep.cache_corrupt") == 1
        # The slot is reusable: a fresh store round-trips again.
        result = make_result()
        cache.store("k1", SweepJob("w16", "gzip", LENGTH), result)
        assert cache.load("k1") == result

    def test_missing_result_keys_are_corrupt(self, tmp_path):
        payload = {"schema": CACHE_SCHEMA_VERSION, "result": {}}
        (tmp_path / "k1.json").write_text(json.dumps(payload))
        assert ResultCache(tmp_path, enabled=True).load("k1") is None
        assert (tmp_path / "k1.json.corrupt").exists()

    def test_schema_mismatch_is_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.store("k1", SweepJob("w16", "gzip", LENGTH), make_result())
        payload = json.loads((tmp_path / "k1.json").read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        (tmp_path / "k1.json").write_text(json.dumps(payload))
        assert cache.load("k1") is None
        assert (tmp_path / "k1.json").exists()  # stale, not corrupt

    def test_clear_removes_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.store("k1", SweepJob("w16", "gzip", LENGTH), make_result())
        (tmp_path / "k2.json").write_text("{broken")
        assert cache.load("k2") is None
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.store("k1", SweepJob("w16", "gzip", LENGTH), make_result())
        cache.store("k2", SweepJob("tc", "gzip", LENGTH), make_result())
        assert cache.clear() == 2
        assert len(cache) == 0


class TestRunJob:
    def test_executes_then_hits_disk(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        job = SweepJob("w16", "gzip", LENGTH)
        first = run_job(job, cache=cache)
        assert first.committed > 0
        assert len(cache) == 1
        second = run_job(job, cache=cache)
        assert second is not first
        assert second == first

    def test_label_becomes_config_name(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        job = SweepJob("w16", "gzip", LENGTH, label="w16/custom")
        assert run_job(job, cache=cache).config_name == "w16/custom"


class TestRunSweep:
    def test_parallel_identical_to_serial(self, tmp_path):
        """Sweep results must be bit-identical regardless of worker count."""
        jobs = [SweepJob(config, bench, LENGTH)
                for config in ("w16", "tc") for bench in ("gzip", "mcf")]
        parallel = run_sweep(jobs, workers=2,
                             cache=ResultCache(tmp_path, enabled=True))
        serial = run_sweep(jobs, workers=1,
                           cache=ResultCache(tmp_path / "x", enabled=False))
        for job in jobs:
            assert parallel.results[job] == serial.results[job]

    def test_warm_disk_cache_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        jobs = [SweepJob("w16", bench, LENGTH)
                for bench in ("gzip", "mcf")]
        cold = run_sweep(jobs, workers=2, cache=cache)
        assert cold.executed == len(jobs)
        warm = run_sweep(jobs, workers=2, cache=cache)
        assert warm.executed == 0
        assert int(warm.stats.get("sweep.disk_hits")) == len(jobs)
        for job in jobs:
            assert warm.results[job] == cold.results[job]

    def test_memo_is_consulted_and_filled(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        memo = {}
        jobs = [SweepJob("w16", "gzip", LENGTH)]
        first = run_sweep(jobs, workers=1, memo=memo, cache=cache)
        assert jobs[0] in memo
        second = run_sweep(jobs, workers=1, memo=memo, cache=cache)
        assert int(second.stats.get("sweep.memo_hits")) == 1
        assert second.results[jobs[0]] is memo[jobs[0]]
        assert first.results[jobs[0]] is memo[jobs[0]]

    def test_duplicate_jobs_run_once(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        job = SweepJob("w16", "gzip", LENGTH)
        report = run_sweep([job, job, job], workers=2, cache=cache)
        assert report.executed == 1
        assert int(report.stats.get("sweep.jobs")) == 3

    def test_progress_callback_and_timing(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        seen = []
        jobs = [SweepJob("w16", "gzip", LENGTH)]
        report = run_sweep(jobs, workers=1, cache=cache,
                           progress=lambda j, r, s: seen.append((j, s)))
        assert [j for j, _ in seen] == jobs
        assert all(s >= 0 for _, s in seen)
        assert report.job_seconds[jobs[0]] > 0
        assert report.stats.get("sweep.wall_seconds") > 0

    def test_empty_sweep(self, tmp_path):
        report = run_sweep([], cache=ResultCache(tmp_path, enabled=True))
        assert report.results == {} and report.executed == 0


class TestStreamGrouping:
    """Stream-sharing jobs scheduled as one group must change worker
    placement only — never results, failures, or merge determinism."""

    def test_grouped_identical_to_ungrouped(self, tmp_path):
        jobs = [SweepJob(config, bench, LENGTH)
                for config in ("w16", "tc") for bench in ("gzip", "mcf")]
        grouped = run_sweep(jobs, workers=2, group_streams=True,
                            cache=ResultCache(tmp_path, enabled=True))
        ungrouped = run_sweep(jobs, workers=2, group_streams=False,
                              cache=ResultCache(tmp_path / "x",
                                                enabled=False))
        assert not grouped.failures and not ungrouped.failures
        # Two benchmarks at one length -> two stream groups of two jobs.
        assert int(grouped.stats.get("sweep.stream_groups")) == 2
        assert int(ungrouped.stats.get("sweep.stream_groups")) == 0
        for job in jobs:
            assert grouped.results[job] == ungrouped.results[job]

    def test_grouped_identical_to_serial(self, tmp_path):
        jobs = [SweepJob(config, "gzip", LENGTH)
                for config in ("w16", "tc", "pf-2x8w")]
        grouped = run_sweep(jobs, workers=2, group_streams=True,
                            cache=ResultCache(tmp_path, enabled=True))
        # One benchmark -> one group -> the pool clamps to one worker.
        assert int(grouped.stats.get("sweep.stream_groups")) == 1
        assert int(grouped.stats.get("sweep.workers")) == 1
        serial = run_sweep(jobs, workers=1, group_streams=False,
                           cache=ResultCache(tmp_path / "x", enabled=False))
        for job in jobs:
            assert grouped.results[job] == serial.results[job]

    def test_group_member_failure_recovers_inline(self, tmp_path,
                                                  monkeypatch):
        """A failing job inside a group must not poison its siblings:
        its error comes back per-job and only it is retried."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_exception match=w16 attempts=0")
        jobs = [SweepJob("w16", "gzip", LENGTH),
                SweepJob("tc", "gzip", LENGTH),
                SweepJob("tc", "mcf", LENGTH)]
        report = run_sweep(jobs, workers=2, group_streams=True,
                           cache=ResultCache(tmp_path, enabled=True))
        # Two groups -> real pool fan-out; only the faulted member of the
        # gzip group retries.
        assert int(report.stats.get("sweep.stream_groups")) == 2
        assert not report.failures
        assert len(report.results) == len(jobs)
        assert int(report.stats.get("sweep.worker_errors")) == 1
        assert int(report.stats.get("sweep.recovered")) == 1

    def test_each_group_starts_one_process(self, tmp_path, monkeypatch):
        """Three groups on two workers start three worker processes:
        nothing replaces a worker that exits after its group."""
        starts = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            starts.append(process.name)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counting_start)
        jobs = [SweepJob(config, bench, LENGTH)
                for bench in ("gzip", "mcf", "vpr")
                for config in ("w16", "tc")]
        report = run_sweep(jobs, workers=2, group_streams=True,
                           cache=ResultCache(tmp_path, enabled=True))
        assert not report.failures
        assert int(report.stats.get("sweep.stream_groups")) == 3
        assert len(starts) == 3

    def test_default_group_streams_parsing(self, monkeypatch):
        monkeypatch.delenv(GROUP_ENV, raising=False)
        assert default_group_streams()
        for value in ("0", "false", "NO", " off "):
            monkeypatch.setenv(GROUP_ENV, value)
            assert not default_group_streams(), value
        for value in ("1", "yes", ""):
            monkeypatch.setenv(GROUP_ENV, value)
            assert default_group_streams(), value


class TestFaultTolerance:
    """Every recovery path of the fault-tolerant runner, exercised via
    the deterministic fault-injection harness in repro.faults."""

    JOBS = [SweepJob("w16", bench, LENGTH) for bench in ("gzip", "mcf")]

    def test_worker_exception_recovers_inline(self, tmp_path, monkeypatch):
        """A job that blows up in its pool worker is re-executed inline
        and the sweep still produces every result."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_exception match=gzip attempts=0")
        report = run_sweep(self.JOBS, workers=2,
                           cache=ResultCache(tmp_path, enabled=True))
        assert not report.failures
        assert len(report.results) == len(self.JOBS)
        assert int(report.stats.get("sweep.retries")) >= 1
        assert int(report.stats.get("sweep.recovered")) == 1
        assert int(report.stats.get("sweep.worker_errors")) >= 1

    def test_recovered_results_match_clean_run(self, tmp_path, monkeypatch):
        clean = run_sweep(self.JOBS, workers=1,
                          cache=ResultCache(tmp_path / "clean",
                                            enabled=True))
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_exception match=w16 attempts=0")
        faulty = run_sweep(self.JOBS, workers=2,
                           cache=ResultCache(tmp_path / "faulty",
                                             enabled=True))
        assert not faulty.failures
        for job in self.JOBS:
            assert faulty.results[job] == clean.results[job]

    def test_persistent_failure_is_structured(self, tmp_path, monkeypatch):
        """A job failing every attempt becomes a JobFailure record, not a
        sweep-wide crash; the other jobs still succeed."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_exception match=gzip attempts=*")
        report = run_sweep(self.JOBS, workers=2, retries=1,
                           cache=ResultCache(tmp_path, enabled=True))
        assert len(report.results) == 1
        assert len(report.failures) == 1
        failure = report.failures[self.JOBS[0]]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 2  # first attempt + one retry
        assert "gzip" in failure.describe()
        assert int(report.stats.get("sweep.failures")) == 1
        with pytest.raises(SweepError, match="InjectedFault"):
            report.raise_failures()

    def test_timeout_then_retry_succeeds(self, tmp_path, monkeypatch):
        """A job that overruns its wall-clock budget on the first attempt
        is killed and retried; the retry (not slowed) succeeds."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "slow_job match=gzip seconds=30 attempts=0")
        report = run_sweep(self.JOBS, workers=2, timeout=4.0,
                           cache=ResultCache(tmp_path, enabled=True))
        assert not report.failures
        assert len(report.results) == len(self.JOBS)
        assert int(report.stats.get("sweep.timeouts")) >= 1
        assert int(report.stats.get("sweep.recovered")) == 1

    def test_persistent_timeout_is_structured_failure(self, tmp_path,
                                                      monkeypatch):
        """slow on every attempt -> retries also time out -> JobFailure
        with TimeoutError, and the sweep itself never hangs."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "slow_job match=gzip seconds=30 attempts=*")
        report = run_sweep(self.JOBS, workers=2, retries=1, timeout=2.0,
                           cache=ResultCache(tmp_path, enabled=True))
        assert len(report.failures) == 1
        failure = report.failures[self.JOBS[0]]
        assert failure.error_type == "TimeoutError"
        assert report.results[self.JOBS[1]] is not None

    def test_worker_crash_recovers_inline(self, tmp_path, monkeypatch):
        """A worker that dies mid-job (os._exit) sends nothing; its
        closed pipe fails the job at once, not at the timeout, and the
        retry round re-executes it."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_crash match=mcf attempts=0")
        report = run_sweep(self.JOBS, workers=2, timeout=6.0,
                           cache=ResultCache(tmp_path, enabled=True))
        assert not report.failures
        assert len(report.results) == len(self.JOBS)
        assert int(report.stats.get("sweep.worker_crashes")) == 1
        assert int(report.stats.get("sweep.recovered")) == 1

    def test_grouped_crash_without_timeout_recovers(self, tmp_path,
                                                    monkeypatch):
        """With no timeout at all, a crashed group is still noticed as
        soon as its worker exits, and its jobs retry one per group."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_crash match=mcf attempts=0")
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        jobs = [SweepJob(config, bench, LENGTH)
                for bench in ("gzip", "mcf")
                for config in ("w16", "tc", "pr-2x8w")]
        start = time.perf_counter()
        report = run_sweep(jobs, workers=2, timeout=None,
                           group_streams=True,
                           cache=ResultCache(tmp_path, enabled=True))
        assert time.perf_counter() - start < 60
        assert not report.failures
        assert len(report.results) == len(jobs)
        assert int(report.stats.get("sweep.worker_crashes")) == 3
        assert int(report.stats.get("sweep.recovered")) == 3

    def test_retry_rounds_run_where_round_zero_ran(self, tmp_path,
                                                   monkeypatch):
        """A sweep that started worker processes retries a lone failing
        job in a worker process too, so a job whose worker dies on every
        attempt fails alone instead of ending the calling process: two
        groups in round 0, then one process per retry round."""
        from repro.experiments import runner as runner_mod
        started = []
        start_group = runner_mod._start_group

        def counting(tasks):
            started.append([job.describe() for job, _ in tasks])
            return start_group(tasks)

        monkeypatch.setattr(runner_mod, "_start_group", counting)
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_exception match=w16/mcf attempts=*")
        jobs = [SweepJob(config, bench, LENGTH)
                for bench in ("gzip", "mcf") for config in ("w16", "tc")]
        report = run_sweep(jobs, workers=2, retries=2, timeout=0,
                           group_streams=True,
                           cache=ResultCache(tmp_path, enabled=True))
        assert len(started) == 4
        assert started[2:] == [[jobs[2].describe()]] * 2
        assert list(report.failures) == [jobs[2]]
        assert report.failures[jobs[2]].attempts == 3
        assert len(report.results) == 3

    def test_corrupt_cache_entry_quarantined_and_reexecuted(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, enabled=True)
        first = run_sweep(self.JOBS, workers=1, cache=cache)
        corrupted = faults.corrupt_entry(cache, self.JOBS[0])
        assert corrupted is not None
        second = run_sweep(self.JOBS, workers=1, cache=cache)
        assert not second.failures
        assert second.executed == 1  # only the corrupt entry re-executes
        assert int(second.stats.get("sweep.disk_hits")) == 1
        assert int(second.stats.get("sweep.cache_corrupt")) == 1
        assert second.results[self.JOBS[0]] == first.results[self.JOBS[0]]
        assert corrupted.with_name(corrupted.name + ".corrupt").exists()

    def test_truncated_cache_write_heals_on_next_sweep(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "truncated_write match=gzip")
        cache = ResultCache(tmp_path, enabled=True)
        run_sweep(self.JOBS, workers=1, cache=cache)
        monkeypatch.delenv(faults.FAULTS_ENV)
        report = run_sweep(self.JOBS, workers=1, cache=cache)
        assert not report.failures
        assert report.executed == 1  # the truncated entry re-executed
        assert int(report.stats.get("sweep.cache_corrupt")) == 1
        # Healed: a third sweep is all disk hits.
        third = run_sweep(self.JOBS, workers=1, cache=cache)
        assert third.executed == 0

    def test_degrades_to_serial_without_multiprocessing(self, tmp_path,
                                                        monkeypatch):
        """When no worker process can start, each group runs inline
        instead of crashing the sweep."""
        from repro.experiments import runner as runner_mod
        monkeypatch.setattr(runner_mod, "_start_group", lambda tasks: None)
        report = run_sweep(self.JOBS, workers=2,
                           cache=ResultCache(tmp_path, enabled=True))
        assert not report.failures
        assert len(report.results) == len(self.JOBS)
        assert int(report.stats.get("sweep.degraded")) == 1

    def test_no_worker_processes_leak(self, tmp_path, monkeypatch):
        """After a sweep with hung (timed-out) jobs, every pool process
        must be gone — terminate() on the error path, no zombies."""
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "slow_job match=gzip seconds=60 attempts=*")
        report = run_sweep(self.JOBS, workers=2, retries=0, timeout=2.0,
                           cache=ResultCache(tmp_path, enabled=True))
        assert len(report.failures) == 1
        deadline = time.time() + 10
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.1)
        assert not multiprocessing.active_children()

    def test_failed_jobs_keep_report_order_and_summary(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker_exception match=gzip attempts=*")
        report = run_sweep(self.JOBS, workers=1, retries=0,
                           cache=ResultCache(tmp_path, enabled=True))
        summary = report.summary()
        assert "failures      1" in summary
        assert "FAILED" in summary and "InjectedFault" in summary
        assert report.failed == 1


class TestHelpers:
    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert default_workers() >= 1

    def test_default_retries_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "5")
        assert default_retries() == 5
        monkeypatch.delenv("REPRO_SWEEP_RETRIES")
        assert default_retries() == 2

    def test_default_timeout_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        assert default_job_timeout() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        assert default_job_timeout() == 12.5
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0")
        assert default_job_timeout() is None

    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4) == \
            [x * x for x in items]
        assert parallel_map(_square, items, workers=1) == \
            [x * x for x in items]

    def test_parallel_map_empty(self):
        assert parallel_map(_square, [], workers=4) == []


def _square(x):
    return x * x
