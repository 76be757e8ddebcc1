"""Parallel sweep executor with a persistent on-disk result cache.

Every figure in the reproduction is a matrix of independent
``(configuration, benchmark, length, overrides)`` simulations, which makes
the experiment layer embarrassingly parallel.  This module provides the
machinery the rest of :mod:`repro.experiments` runs on:

* :class:`SweepJob` — a picklable, hashable description of one simulation
  (named configuration plus the override knobs the experiments use);
* :class:`ResultCache` — a content-addressed JSON-per-result disk cache
  under ``.repro_cache/`` (override with ``REPRO_CACHE_DIR``, disable
  with ``REPRO_NO_CACHE``), keyed by a digest of the *resolved* processor
  configuration plus the job parameters and a cache-schema version, so
  stale entries are never served across config or format changes;
* :func:`run_sweep` — fans pending jobs out over worker processes
  (``REPRO_SWEEP_WORKERS`` sets the default width) and merges the
  results back in job order, so a parallel sweep is counter-for-counter
  identical to a serial one.  Jobs sharing an oracle stream — same
  ``(benchmark, length, warm)`` — are grouped onto one worker by
  default (``REPRO_SWEEP_GROUP=0`` disables, ``group_streams=``
  overrides), so each group pays stream emulation and warm-snapshot
  training once instead of once per scattered worker, and co-simulates
  its eligible jobs over one shared stream.  Each group runs in a fresh
  worker process, so a worker holds one stream at a time;
* :func:`run_job` — the single-job path (disk cache + execute) that the
  in-process memo in :mod:`repro.experiments.common` layers on top of.

Fault tolerance: a sweep survives individual job failures.  A worker
process that dies fails its group's jobs as soon as its pipe closes;
one that outlives its wall-clock budget (``REPRO_JOB_TIMEOUT`` /
``--timeout`` per job) is killed.  Failed jobs run again, one per
group, in up to ``REPRO_SWEEP_RETRIES`` / ``--retries`` further rounds.
When a worker process cannot be started, its group runs in the calling
process instead.  Jobs that still fail after every retry become
structured :class:`JobFailure` records on the report
(``SweepReport.failures``) rather than a sweep-wide exception; callers
that need all results call :meth:`SweepReport.raise_failures`.  Worker
processes still running when a sweep ends, on any path, are killed and
reaped, so a failing sweep never leaks or hangs on stuck workers.

Observability: each sweep produces a :class:`SweepReport` whose
:class:`~repro.stats.StatsCollector` carries job counts, cache hit/miss
counters, per-job and total wall-clock timing, worker utilization and
the failure/recovery counters (``sweep.retries``, ``sweep.timeouts``,
``sweep.worker_errors``, ``sweep.worker_crashes``, ``sweep.failures``,
``sweep.recovered``, ``sweep.degraded``, ``sweep.cache_corrupt``); the
same counters accumulate process-wide in :data:`SWEEP_STATS`.
Deterministic fault injection for all of these paths lives in
:mod:`repro.faults`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults
from repro.config import ProcessorConfig, env_flag, frontend_config
from repro.core.simulation import SimulationResult, run_simulation
from repro.sampling import prep
from repro.sampling.engine import SamplingConfig
from repro.errors import SweepError
from repro.stats import StatsCollector, ThreadSafeStatsCollector

#: Bump whenever the cached payload format *or* anything that invalidates
#: old results (simulation semantics, counter meanings) changes.
CACHE_SCHEMA_VERSION = 1

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
GROUP_ENV = "REPRO_SWEEP_GROUP"
RETRIES_ENV = "REPRO_SWEEP_RETRIES"
TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: Age (seconds) past which an orphaned ``.tmp`` write is considered
#: dead and reaped.  Generous: no legitimate atomic write stays in
#: flight for 10 minutes.
DEFAULT_TMP_TTL = 600.0

#: Stale-tmp sweeps on cache open are rate-limited to once per directory
#: per this many seconds per process (opening a cache is frequent and
#: cheap; directory scans should not be).
_REAP_INTERVAL = 60.0

#: Retries per job after its first attempt (``REPRO_SWEEP_RETRIES``).
DEFAULT_RETRIES = 2

#: Process-wide accumulation of every sweep's counters (tests and the CLI
#: read this to verify e.g. that a warm-cache sweep executed nothing).
#: Thread-safe: sweeps and cache stores may run on several threads at
#: once (``repro sweep --attach`` runs its sweep off the main thread).
SWEEP_STATS = ThreadSafeStatsCollector()


#: Monotonic per-process discriminator for in-flight tmp writes, so two
#: threads storing the same key from one process never share a tmp file.
_TMP_SEQ = itertools.count()

#: Directory -> monotonic time of the last open-path stale-tmp sweep.
_LAST_REAP: Dict[str, float] = {}


# ---------------------------------------------------------------------------
# Job description


@dataclass(frozen=True)
class SweepJob:
    """One simulation of the experiment matrix, described by value.

    Only primitives — the job must be picklable for worker processes and
    hashable for the in-process memo.  ``overrides`` is a tuple of
    ``(dotted.path, value)`` pairs applied to the resolved
    :class:`~repro.config.ProcessorConfig` with ``dataclasses.replace``
    (e.g. ``("frontend.num_fragment_buffers", 32)``).
    """

    config_name: str
    benchmark: str
    length: int
    total_l1_storage: Optional[int] = None
    predictor_entries: Optional[int] = None
    overrides: Tuple[Tuple[str, Any], ...] = ()
    warm: bool = True
    #: Display name recorded in the result (defaults to ``config_name``).
    label: Optional[str] = None
    #: Interval sampling as a ``(period, unit, warmup)`` tuple, or None
    #: for full detail.  Explicit-by-value (never env-resolved in the
    #: worker) so the content-addressed cache key always matches what
    #: actually ran.
    sampling: Optional[Tuple[int, int, int]] = None
    #: Durable checkpoint interval in committed instructions, or None
    #: for no checkpointing (see :mod:`repro.checkpoint`).  Explicit-by-
    #: value like ``sampling``: checkpoint boundaries drain the pipeline,
    #: so the cadence is part of the result's identity and must never be
    #: resolved from a worker's environment.
    checkpoint: Optional[int] = None

    def build_config(self) -> ProcessorConfig:
        """Resolve the named configuration and apply every override."""
        config = frontend_config(self.config_name,
                                 total_l1_storage=self.total_l1_storage)
        if self.predictor_entries is not None:
            config = config.replace(
                trace_predictor=config.trace_predictor.scaled(
                    self.predictor_entries))
        for path, value in self.overrides:
            config = _replace_path(config, path.split("."), value)
        return config

    def cache_key(self) -> str:
        """Content-addressed cache key for this job.

        Includes a digest of the fully resolved configuration, so cached
        results go stale automatically when configuration defaults (or
        the meaning of a named configuration) change between versions.
        """
        config_digest = hashlib.sha256(
            repr(self.build_config()).encode()).hexdigest()
        fields = {
            "schema": CACHE_SCHEMA_VERSION,
            "config_name": self.config_name,
            "benchmark": self.benchmark,
            "length": self.length,
            "total_l1_storage": self.total_l1_storage,
            "predictor_entries": self.predictor_entries,
            "overrides": [[path, value] for path, value in self.overrides],
            "warm": self.warm,
            "label": self.label,
            "config_digest": config_digest,
        }
        if self.sampling is not None:
            # Only sampled jobs carry the field, so every pre-existing
            # full-detail cache entry keeps its key.
            fields["sampling"] = list(self.sampling)
        if self.checkpoint is not None:
            # Same back-compat pattern: full-detail checkpoint boundaries
            # drain the pipeline, so the cadence changes the (still
            # deterministic) schedule and therefore the result identity.
            fields["checkpoint"] = self.checkpoint
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """Human-readable one-line description of the job."""
        parts = [self.label or self.config_name, self.benchmark,
                 f"n={self.length}"]
        if self.total_l1_storage is not None:
            parts.append(f"l1={self.total_l1_storage // 1024}KB")
        if self.predictor_entries is not None:
            parts.append(f"pred={self.predictor_entries}")
        for path, value in self.overrides:
            parts.append(f"{path}={value}")
        if not self.warm:
            parts.append("cold")
        if self.sampling is not None:
            period, unit, warmup = self.sampling
            parts.append(f"sampled={period}x{unit}+{warmup}")
        if self.checkpoint is not None:
            parts.append(f"ckpt={self.checkpoint}")
        return "/".join(parts)


def _replace_path(obj, parts: List[str], value):
    """Functional update of a nested dataclass field by dotted path."""
    if len(parts) == 1:
        return dataclasses.replace(obj, **{parts[0]: value})
    child = _replace_path(getattr(obj, parts[0]), parts[1:], value)
    return dataclasses.replace(obj, **{parts[0]: child})


# ---------------------------------------------------------------------------
# Disk cache


class ResultCache:
    """Content-addressed JSON-per-result cache under one directory.

    Each entry is a single ``<key>.json`` file holding the schema version,
    a human-readable description of the job, and the full result payload.
    Writes are atomic (temp file + rename) so concurrent workers and
    interrupted sweeps never leave a torn entry.

    A corrupt entry (torn by a crash mid-``os.replace`` on exotic
    filesystems, truncated by a full disk, or hand-edited) is
    *quarantined* on load — renamed to ``<key>.json.corrupt`` and
    counted as ``sweep.cache_corrupt`` — so the job re-executes and the
    repaired entry is rewritten, instead of re-parsing the same broken
    file on every run forever.

    Multi-process hygiene: a worker killed between writing its temp file
    and the rename leaves an orphaned ``<key>.tmp.<pid>-<n>`` behind;
    stale orphans (older than :data:`DEFAULT_TMP_TTL`, 10 min) are swept
    on cache open and on :meth:`clear`, counted as
    ``sweep.cache_tmp_reaped``.  Every delete tolerates losing the race
    to another process (entries may vanish between listing and unlink).
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 enabled: Optional[bool] = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.directory = Path(directory)
        if enabled is None:
            enabled = not env_flag(NO_CACHE_ENV)
        self.enabled = enabled
        if self.enabled:
            self._reap_on_open()

    def _reap_on_open(self) -> None:
        """Open-path stale-tmp sweep, rate-limited per directory."""
        key = str(self.directory)
        now = time.monotonic()
        last = _LAST_REAP.get(key)
        if last is not None and now - last < _REAP_INTERVAL:
            return
        _LAST_REAP[key] = now
        self.reap_stale_tmp()

    def reap_stale_tmp(self, stats: Optional[StatsCollector] = None) -> int:
        """Delete orphaned ``.tmp`` files older than :data:`DEFAULT_TMP_TTL`.

        The age gate is generous enough that a tmp file from a live
        in-flight store is never touched.  Returns the number reaped;
        each one also counts as ``sweep.cache_tmp_reaped``.
        """
        if not self.directory.is_dir():
            return 0
        cutoff = time.time() - DEFAULT_TMP_TTL
        reaped = 0
        for path in self.directory.glob("*.tmp.*"):
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
            except OSError:  # vanished mid-race or unreadable: not ours
                continue
            reaped += 1
        if reaped:
            for collector in (stats, SWEEP_STATS):
                if collector is not None:
                    collector.add("sweep.cache_tmp_reaped", reaped)
        return reaped

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str,
             stats: Optional[StatsCollector] = None
             ) -> Optional[SimulationResult]:
        """The cached result for *key*, or None (miss / disabled / stale).

        Corrupt entries are quarantined (see class docstring) and count
        as a miss; *stats*, when given, receives the
        ``sweep.cache_corrupt`` increment alongside :data:`SWEEP_STATS`.
        """
        if not self.enabled:
            return None
        start = time.perf_counter()
        try:
            path = self._path(key)
            try:
                text = path.read_text()
            except OSError:
                return None
            try:
                payload = json.loads(text)
                if payload.get("schema") != CACHE_SCHEMA_VERSION:
                    # Stale, not corrupt: a rewrite will replace it.
                    return None
                result = _result_from_payload(payload["result"])
            except (ValueError, KeyError, TypeError, AttributeError):
                self._quarantine(path, stats)
                return None
            return result
        finally:
            self._time("load", time.perf_counter() - start, stats)

    @staticmethod
    def _time(op: str, seconds: float,
              stats: Optional[StatsCollector] = None) -> None:
        """Attribute cache-layer wall clock (self-profiling; near-free:
        two perf_counter calls per cache touch)."""
        for collector in (stats, SWEEP_STATS):
            if collector is not None:
                collector.add(f"sweep.cache_{op}_seconds", seconds)
                collector.add(f"sweep.cache_{op}s")

    @staticmethod
    def _quarantine(path: Path,
                    stats: Optional[StatsCollector] = None) -> None:
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - e.g. concurrent quarantine
            pass
        for collector in (stats, SWEEP_STATS):
            if collector is not None:
                collector.add("sweep.cache_corrupt")

    def store(self, key: str, job: SweepJob,
              result: SimulationResult,
              stats: Optional[StatsCollector] = None) -> None:
        """Persist one job's result (and stats) under *key*."""
        if not self.enabled:
            return
        start = time.perf_counter()
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "job": job.describe(),
            "result": _result_to_payload(result),
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        plan = faults.active_plan()
        if plan is not None:
            text = plan.on_cache_write(job.describe(), text)
        path = self._path(key)
        # Unique per process *and* per in-flight write: concurrent
        # threads of one process storing the same key must not
        # interleave writes into a shared tmp file.
        tmp = path.with_suffix(f".tmp.{os.getpid()}-{next(_TMP_SEQ)}")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except FileNotFoundError:
            # Our tmp vanished before the rename: an external sweeper
            # (a concurrent wipe) won the race.  A cache store losing a
            # race must never fail the job it caches.
            for collector in (stats, SWEEP_STATS):
                if collector is not None:
                    collector.add("sweep.cache_store_lost")
        except BaseException:
            # Failed writes (full disk, interrupt) must not become
            # orphans the age-gated reaper has to find later.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self._time("store", time.perf_counter() - start, stats)

    def clear(self, stats: Optional[StatsCollector] = None) -> int:
        """Delete every cache entry (plus quarantined corpses and any
        *stale* orphaned tmp files); returns the number of live entries
        removed.  Safe to run concurrently with other processes
        clearing or writing the same directory: entries that vanish
        between listing and unlink are simply skipped, and the tmp
        sweep keeps its age gate so a live writer's in-flight atomic
        write is never yanked out from under its rename.
        """
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue  # another process cleared it first
                removed += 1
            for path in self.directory.glob("*.json.corrupt"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
            self.reap_stale_tmp(stats=stats)
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))


def _result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    return {
        "benchmark": result.benchmark,
        "config_name": result.config_name,
        "cycles": result.cycles,
        "committed": result.committed,
        "counters": dict(result.counters),
    }


def _result_from_payload(payload: Dict[str, Any]) -> SimulationResult:
    return SimulationResult(
        benchmark=payload["benchmark"],
        config_name=payload["config_name"],
        cycles=payload["cycles"],
        committed=payload["committed"],
        counters={name: float(value)
                  for name, value in payload["counters"].items()},
    )


# ---------------------------------------------------------------------------
# Execution


def _execute_job(job: SweepJob,
                 attempt: int = 0) -> Tuple[Dict[str, Any], float]:
    """Run one job (worker-side); returns (result payload, seconds).

    Runs in a worker process for parallel sweeps and inline for serial
    ones — the exact same code path, which is what makes parallel output
    bit-identical to serial.  *attempt* is the sweep round, which numbers
    re-executions of the same job so the fault-injection plan (if any)
    can behave deterministically across processes.
    """
    plan = faults.active_plan()
    if plan is not None:
        plan.on_execute(job.describe(), attempt)
    start = time.perf_counter()
    # Sampling is passed by value from the job — never resolved from the
    # environment in a worker — so the content-addressed cache key always
    # matches what actually ran (sampling=False blocks REPRO_SAMPLE).
    if job.sampling is not None:
        period, unit, warmup = job.sampling
        sampling: Any = SamplingConfig(period=period, unit=unit,
                                       warmup=warmup)
    else:
        sampling = False
    # Checkpointing likewise: job.checkpoint or nothing (False blocks
    # a worker's inherited REPRO_CHECKPOINT from skewing identity).
    checkpoint_every: Any = (job.checkpoint if job.checkpoint is not None
                             else False)
    result = run_simulation(job.build_config(), job.benchmark,
                            max_instructions=job.length,
                            config_name=job.label or job.config_name,
                            warm=job.warm, sampling=sampling,
                            checkpoint_every=checkpoint_every)
    return _result_to_payload(result), time.perf_counter() - start


def _pool_task(task: Tuple[SweepJob, int]) -> Tuple:
    """Run one job; never raises across the pipe.

    Exceptions become structured ``("error", type, message)`` outcomes so
    one bad job cannot abort the rest of its group; successes are
    ``("ok", payload, seconds)``.
    """
    job, attempt = task
    try:
        payload, seconds = _execute_job(job, attempt)
        return ("ok", payload, seconds)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


def _cosim_batch(tasks: Sequence[Tuple[SweepJob, int]]
                 ) -> Tuple[List[Tuple], Dict[str, float]]:
    """Co-simulate one batch of stream-sibling jobs (worker-side).

    Every job shares ``(benchmark, length, warm)`` *and* the same
    sampling selector with no checkpointing (the caller partitions on
    that), so the whole batch maps onto one
    :func:`repro.perf.cosim.run_cosim` call.  Sampling and the absent
    checkpoint cadence are passed by value from the jobs — never
    resolved from the environment — exactly like :func:`_execute_job`,
    so cache keys keep matching what ran.
    Returns per-job ``("ok", payload, seconds)`` outcomes in job order
    (batch wall time split evenly — siblings share most of the work, so
    per-job attribution is nominal) plus the savings counters.
    """
    from repro.perf import cosim as cosim_engine

    jobs = [job for job, _ in tasks]
    lead = jobs[0]
    if lead.sampling is not None:
        period, unit, warmup = lead.sampling
        sampling: Any = SamplingConfig(period=period, unit=unit,
                                       warmup=warmup)
    else:
        sampling = False
    specs = [(job.build_config(), job.label or job.config_name)
             for job in jobs]
    start = time.perf_counter()
    results, savings = cosim_engine.run_cosim(
        specs, lead.benchmark, max_instructions=lead.length,
        warm=lead.warm, sampling=sampling, checkpoint_every=False)
    seconds = (time.perf_counter() - start) / len(jobs)
    outcomes = [("ok", _result_to_payload(result), seconds)
                for result in results]
    return outcomes, savings


def _pool_group_task(tasks: Sequence[Tuple[SweepJob, int]]
                     ) -> Tuple[List[Tuple], Dict[str, float]]:
    """Run a stream-sharing group of jobs (a worker process's whole task).

    Every job in a group shares ``(benchmark, length, warm)``, so running
    the group sequentially inside one worker pays oracle-stream emulation
    and warm-snapshot training once for the whole group — the prep caches
    in :mod:`repro.sampling.prep` are process-local, and without grouping
    each worker a job lands on rebuilds them independently.
    Sub-batches of the group that also share a sampling selector (and
    do not checkpoint) advance through the stream together in one
    :func:`repro.perf.cosim.run_cosim` call, additionally sharing decode,
    SoA metadata and functional gap fast-forwarding; leftovers run
    per-job.  Fault-injection sweeps never co-simulate — the plan's
    deterministic per-job ``on_execute`` hook must fire per job.

    Returns ``(outcomes, group_stats)``: per-job outcomes in job order
    (never raising across the pipe — a failing job or batch yields
    ``("error", ...)`` tuples without poisoning its neighbours) and the
    savings counters worker processes cannot report via process-global
    stats.
    """
    tasks = list(tasks)
    group_stats: Dict[str, float] = {}
    outcomes: List[Optional[Tuple]] = [None] * len(tasks)
    if faults.active_plan() is None:
        batches: Dict[Tuple, List[int]] = {}
        for index, (job, _attempt_no) in enumerate(tasks):
            batches.setdefault((job.sampling, job.checkpoint),
                               []).append(index)
        for (_sampling, checkpoint), indices in batches.items():
            if checkpoint is not None or len(indices) < 2:
                continue  # nothing to share (or checkpointing: per-job)
            try:
                batch_outcomes, savings = _cosim_batch(
                    [tasks[i] for i in indices])
            except Exception as exc:
                # The whole batch shares one engine call, so one failure
                # taints every sibling: each re-runs alone next round.
                failure = ("error", type(exc).__name__, str(exc))
                for i in indices:
                    outcomes[i] = failure
                continue
            for i, outcome in zip(indices, batch_outcomes):
                outcomes[i] = outcome
            group_stats["cosim.groups"] = (
                group_stats.get("cosim.groups", 0.0) + 1.0)
            for key, value in savings.items():
                group_stats[key] = group_stats.get(key, 0.0) + value
    for index, task in enumerate(tasks):
        if outcomes[index] is None:
            outcomes[index] = _pool_task(task)
    return outcomes, group_stats


def _group_process(conn, tasks: Sequence[Tuple[SweepJob, int]]) -> None:
    """Worker-process body: run one group, send its outcomes, exit."""
    try:
        conn.send(_pool_group_task(tasks))
    finally:
        conn.close()


def _start_group(tasks: Sequence[Tuple[SweepJob, int]]
                 ) -> Optional[Tuple[multiprocessing.Process, Any]]:
    """Start one group in a fresh worker process.

    Returns the process and the read end of its pipe, or None when no
    process can be started (platforms without working semaphores or
    fork support raise ``ImportError``/``OSError``); the group then runs
    in the calling process.  The worker's program, stream and trained
    warm structures are freed when it exits, with no teardown code.
    """
    try:
        reader, writer = multiprocessing.Pipe(duplex=False)
    except (ImportError, OSError):
        return None
    try:
        process = multiprocessing.Process(
            target=_group_process, args=(writer, tasks), daemon=True)
        process.start()
    except (ImportError, OSError):
        reader.close()
        return None
    finally:
        # Only the worker may hold the write end: its exit then reads as
        # end-of-file here, whether or not it sent anything.
        writer.close()
    return process, reader


#: Failed outcome kind -> the sweep counter it increments.
_FAILURE_COUNTERS = {"error": "sweep.worker_errors",
                     "crash": "sweep.worker_crashes",
                     "timeout": "sweep.timeouts"}


def _run_round(groups: List[List[Tuple[SweepJob, int]]],
               workers: Optional[int], timeout: Optional[float],
               stats: StatsCollector
               ) -> Iterator[Tuple[int, Tuple[List[Tuple], Dict]]]:
    """Run one round of groups; yields ``(index, (outcomes, group_stats))``
    as each group finishes, in completion order.

    With *workers* None every group runs in the calling process, in
    order; after the consumer has taken a benchmark's last group, that
    benchmark's stream state is freed
    (:func:`repro.sampling.prep.forget_benchmark`), except for the
    round's final group, whose stream stays cached for the caller.
    Otherwise each group runs in a fresh worker process, at most
    *workers* at once.  A worker that exits without sending fails its
    group's jobs at once (``"crash"``); one still running *timeout* ×
    group size seconds after it started is killed (``"timeout"``).
    """
    last_of = {tasks[0][0].benchmark: index
               for index, tasks in enumerate(groups)}

    def inline(index: int) -> Iterator:
        yield index, _pool_group_task(groups[index])
        benchmark = groups[index][0][0].benchmark
        if index < len(groups) - 1 and last_of[benchmark] == index:
            prep.forget_benchmark(benchmark)

    if workers is None:
        for index in range(len(groups)):
            yield from inline(index)
        return
    # Imported here: it pulls in subprocess and friends, which a process
    # that never starts a worker need not hold.
    from multiprocessing.connection import wait as wait_for
    waiting = list(range(len(groups)))[::-1]
    running: Dict[Any, Tuple[int, multiprocessing.Process,
                             Optional[float]]] = {}
    try:
        while waiting or running:
            while waiting and len(running) < workers:
                index = waiting.pop()
                started = _start_group(groups[index])
                if started is None:
                    stats.set("sweep.degraded", 1)
                    yield from inline(index)
                    continue
                process, reader = started
                deadline = (None if timeout is None else time.monotonic()
                            + timeout * len(groups[index]))
                running[reader] = (index, process, deadline)
            if not running:
                continue  # every group left ran in this process
            deadlines = [deadline for _, _, deadline in running.values()
                         if deadline is not None]
            patience = (max(0.0, min(deadlines) - time.monotonic())
                        if deadlines else None)
            for reader in wait_for(list(running), patience):
                index, process, _ = running.pop(reader)
                # Read before joining: a worker blocked writing a large
                # result into a full pipe would never exit.
                try:
                    result = reader.recv()
                except EOFError:
                    result = None
                reader.close()
                process.join()
                if result is None:
                    result = ([("crash", "WorkerCrash",
                                f"worker exited with code "
                                f"{process.exitcode} before returning "
                                "its group")] * len(groups[index]), {})
                yield index, result
            now = time.monotonic()
            for reader, (index, process, deadline) in list(running.items()):
                if deadline is not None and now >= deadline:
                    del running[reader]
                    _reap(process, reader)
                    yield index, ([("timeout", "TimeoutError",
                                    f"no result within "
                                    f"{timeout * len(groups[index]):g}s")]
                                  * len(groups[index]), {})
    finally:
        for reader, (_, process, _) in running.items():
            _reap(process, reader)


def _reap(process: multiprocessing.Process, reader) -> None:
    """Kill a worker process that owes no more results, and reap it."""
    process.kill()
    process.join()
    reader.close()


def default_workers() -> int:
    """Worker processes at once: ``REPRO_SWEEP_WORKERS`` or the CPU count."""
    override = os.environ.get(WORKERS_ENV)
    if override:
        return max(1, int(override))
    return os.cpu_count() or 1


def default_group_streams() -> bool:
    """Whether sweeps group stream-sharing jobs (``REPRO_SWEEP_GROUP``).

    Grouping is on by default, and a group's eligible jobs co-simulate.
    Set ``REPRO_SWEEP_GROUP=0`` (or ``false``, ``no``, ``off``) to
    scatter jobs individually: nothing is shared or co-simulated, which
    makes it the serial reference for co-sim parity checks, and suits a
    sweep dominated by one benchmark where per-job parallelism matters
    more than shared prep work.
    """
    return env_flag(GROUP_ENV, default=True)


def default_retries() -> int:
    """Retries per failed job: ``REPRO_SWEEP_RETRIES`` or 2."""
    override = os.environ.get(RETRIES_ENV)
    if override:
        return max(0, int(override))
    return DEFAULT_RETRIES


def default_job_timeout() -> Optional[float]:
    """Per-job wall-clock timeout in seconds: ``REPRO_JOB_TIMEOUT``.

    Unset or 0 means no timeout.  A crashed worker needs none: its
    group fails as soon as the worker's pipe closes.
    """
    override = os.environ.get(TIMEOUT_ENV)
    if override:
        value = float(override)
        return value if value > 0 else None
    return None


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that failed all of its attempts."""

    job: SweepJob
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        """Human-readable one-line description of the failure."""
        return (f"{self.job.describe()}: {self.error_type}: "
                f"{self.message} (after {self.attempts} attempt(s))")


@dataclass
class SweepReport:
    """Results plus observability for one :func:`run_sweep` call."""

    jobs: List[SweepJob]
    results: Dict[SweepJob, SimulationResult]
    stats: StatsCollector = field(default_factory=StatsCollector)
    job_seconds: Dict[SweepJob, float] = field(default_factory=dict)
    #: Jobs that failed every attempt, with the final error per job.
    failures: Dict[SweepJob, JobFailure] = field(default_factory=dict)

    @property
    def executed(self) -> int:
        """Jobs that actually ran a simulation (not cached)."""
        return int(self.stats.get("sweep.executed"))

    @property
    def cache_hits(self) -> int:
        """Jobs served from the memo or disk cache."""
        return int(self.stats.get("sweep.memo_hits")
                   + self.stats.get("sweep.disk_hits"))

    @property
    def failed(self) -> int:
        """Jobs that exhausted their retries."""
        return len(self.failures)

    def raise_failures(self) -> None:
        """Raise :class:`~repro.errors.SweepError` if any job failed.

        For callers (the figure pipelines) that need every result and
        prefer one aggregate exception over per-job checks.
        """
        if self.failures:
            details = "; ".join(f.describe() for f in self.failures.values())
            raise SweepError(
                f"{len(self.failures)} sweep job(s) failed: {details}")

    def summary(self) -> str:
        """Multi-line execution summary (jobs, hits, retries, time)."""
        stats = self.stats
        lines = [
            f"jobs          {int(stats.get('sweep.jobs'))}",
            f"memo hits     {int(stats.get('sweep.memo_hits'))}",
            f"disk hits     {int(stats.get('sweep.disk_hits'))}",
            f"executed      {int(stats.get('sweep.executed'))}",
            f"workers       {int(stats.get('sweep.workers'))}",
            f"wall seconds  {stats.get('sweep.wall_seconds'):.2f}",
            f"job seconds   {stats.get('sweep.exec_seconds'):.2f}",
            f"cache seconds "
            f"{stats.get('sweep.cache_load_seconds') + stats.get('sweep.cache_store_seconds'):.2f}",
            f"utilization   {stats.get('sweep.utilization'):.2f}",
            f"retries       {int(stats.get('sweep.retries'))}",
            f"timeouts      {int(stats.get('sweep.timeouts'))}",
            f"recovered     {int(stats.get('sweep.recovered'))}",
            f"cache corrupt {int(stats.get('sweep.cache_corrupt'))}",
            f"failures      {len(self.failures)}",
        ]
        if stats.get("sweep.cosim_groups"):
            lines.append(
                f"cosim groups  {int(stats.get('sweep.cosim_groups'))} "
                f"({int(stats.get('sweep.cosim_jobs'))} jobs)")
            lines.append(
                f"cosim shared  "
                f"decode={int(stats.get('sweep.cosim_shared_decode'))} "
                f"gap_insts={int(stats.get('sweep.cosim_gap_insts_shared'))} "
                f"warm_trains_saved="
                f"{int(stats.get('prep.snapshot_group_shared'))}")
            lines.append(
                f"warm trains   "
                f"digests={int(stats.get('prep.snapshot_trains'))} "
                f"structures={int(stats.get('prep.structure_trains'))}")
        if stats.get("sweep.degraded"):
            lines.append("degraded      in-process (no worker process "
                         "could start)")
        for failure in self.failures.values():
            lines.append(f"FAILED  {failure.describe()}")
        return "sweep summary\n" + "\n".join("  " + line for line in lines)


def run_job(job: SweepJob,
            cache: Optional[ResultCache] = None,
            stats: Optional[StatsCollector] = None) -> SimulationResult:
    """Run one job through the disk cache (the serial, single-job path)."""
    cache = cache if cache is not None else ResultCache()
    key = job.cache_key()
    cached = cache.load(key, stats=stats)
    for collector in (stats, SWEEP_STATS):
        if collector is not None:
            collector.add("sweep.jobs")
            collector.add("sweep.disk_hits" if cached is not None
                          else "sweep.executed")
    if cached is not None:
        return cached
    payload, seconds = _execute_job(job)
    result = _result_from_payload(payload)
    cache.store(key, job, result, stats=stats)
    for collector in (stats, SWEEP_STATS):
        if collector is not None:
            collector.add("sweep.exec_seconds", seconds)
    return result


def _notify(observer: Optional[Callable[[str, SweepJob, dict], None]],
            kind: str, job: SweepJob, **info: Any) -> None:
    """Best-effort observer callback — telemetry must not fail a sweep."""
    if observer is None:
        return
    try:
        observer(kind, job, info)
    except Exception:
        SWEEP_STATS.add("sweep.observer_errors")


def run_sweep(jobs: Sequence[SweepJob],
              workers: Optional[int] = None,
              memo: Optional[MutableMapping[SweepJob,
                                            SimulationResult]] = None,
              cache: Optional[ResultCache] = None,
              progress: Optional[Callable[[SweepJob, SimulationResult,
                                           float], None]] = None,
              retries: Optional[int] = None,
              timeout: Optional[float] = None,
              observer: Optional[Callable[[str, SweepJob, dict],
                                          None]] = None,
              group_streams: Optional[bool] = None
              ) -> SweepReport:
    """Run every job, fanning cache misses out over worker processes.

    Results are merged back in job order, so the report is deterministic
    regardless of worker scheduling.  The lookup order per job is:

    1. *memo* — the caller's in-process L1 (e.g. the experiment-layer
       memo), consulted and updated in place when given;
    2. the on-disk :class:`ResultCache` (L2, persistent across processes);
    3. execution, in rounds of *groups*.

    Jobs sharing an oracle stream — the same ``(benchmark, length,
    warm)`` triple — form one group (*group_streams*, default from
    ``REPRO_SWEEP_GROUP``, on unless set falsy), so the group pays
    stream emulation and warm-snapshot training once; the per-benchmark
    prep caches (:mod:`repro.sampling.prep`) are process-local, and
    scattering stream-siblings across workers rebuilds them per worker.
    With grouping off every job is a group of its own.  Each group runs
    in a fresh worker process, at most *workers* at once, and the
    process exits with everything the group loaded.  A sweep with one
    worker and no *timeout* runs every round's groups in the calling
    process instead (the choice is made once, so retry rounds run
    where round 0 did), and frees a benchmark's stream state after its
    last group
    (:func:`repro.sampling.prep.forget_benchmark`), so that process,
    too, holds one stream at a time; the round's final benchmark keeps
    its state for the caller's next sweep.  Grouping never changes
    results — only worker placement — and the merge stays in submission
    order (a group merges once every earlier group has), so grouped
    and ungrouped sweeps produce identical reports (the test suite
    asserts this).  Group sizes are reported as
    ``sweep.stream_groups``.

    A group's jobs that also share a sampling selector (and do not
    checkpoint) are *co-simulated*: one
    :func:`repro.perf.cosim.run_cosim` call advances all of their timing
    models over one shared stream, sharing decode, SoA metadata,
    warm-snapshot training and functional gap fast-forwarding.  With
    grouping off every group is one job, so nothing co-simulates;
    ``REPRO_SWEEP_GROUP=0`` is therefore the serial reference.
    Co-simulation is bit-identical to running the group's jobs back to
    back — the parity tests assert it — and its savings surface as
    ``sweep.cosim_*`` counters in the report.

    Execution is fault tolerant.  A job fails when it raises
    (``sweep.worker_errors``), when its worker exits without returning
    its group (``sweep.worker_crashes``), or when its worker is still
    running *timeout* × group size seconds after it started (env
    ``REPRO_JOB_TIMEOUT``; ``timeout=0`` disables) and is killed
    (``sweep.timeouts``).  Round 0 runs the groups; each of up to
    *retries* further rounds (env ``REPRO_SWEEP_RETRIES``) runs the
    jobs that failed in the last one, one job per group, and passes the
    round number to the fault plan as the attempt.  A job that fails
    every round becomes a :class:`JobFailure` in ``report.failures``
    instead of aborting the sweep.

    *progress* fires per executed job; *observer*, when given, also sees
    the telemetry-only events — ``("cached", job, {"source"})`` per
    memo/disk hit, ``("retry", job, {"attempt"})`` per recovery attempt
    and ``("failure", job, {"error", "attempts"})`` per exhausted job.
    Both callbacks are best-effort: an observer that raises is counted
    (``sweep.observer_errors``) and otherwise ignored.
    """
    start = time.perf_counter()
    stats = StatsCollector()
    report = SweepReport(jobs=list(jobs), results={}, stats=stats)
    stats.add("sweep.jobs", len(report.jobs))

    retries = default_retries() if retries is None else max(0, retries)
    timeout = default_job_timeout() if timeout is None else \
        (timeout if timeout > 0 else None)

    cache = cache if cache is not None else ResultCache()
    unique: List[SweepJob] = []
    seen = set()
    for job in report.jobs:
        if job not in seen:
            seen.add(job)
            unique.append(job)

    pending: List[SweepJob] = []
    for job in unique:
        if memo is not None and job in memo:
            stats.add("sweep.memo_hits")
            report.results[job] = memo[job]
            _notify(observer, "cached", job, source="memo")
            continue
        cached = cache.load(job.cache_key(), stats=stats)
        if cached is not None:
            stats.add("sweep.disk_hits")
            report.results[job] = cached
            if memo is not None:
                memo[job] = cached
            _notify(observer, "cached", job, source="disk")
            continue
        pending.append(job)

    group_streams = (default_group_streams() if group_streams is None
                     else group_streams)
    groups: List[List[SweepJob]] = []
    if group_streams:
        by_stream: Dict[Tuple[str, int, bool], List[SweepJob]] = {}
        for job in pending:
            gkey = (job.benchmark, job.length, job.warm)
            bucket = by_stream.get(gkey)
            if bucket is None:
                bucket = by_stream[gkey] = []
                groups.append(bucket)
            bucket.append(job)
        if pending:
            stats.set("sweep.stream_groups", len(groups))
    else:
        groups = [[job] for job in pending]

    workers = workers if workers is not None else default_workers()
    workers = max(1, min(workers, len(groups)) if groups else 1)
    stats.add("sweep.executed", len(pending))
    stats.set("sweep.workers", workers)
    # Where rounds run is decided here, once: a retry round of one job
    # still runs in a worker process when round 0 did, so a job whose
    # worker dies on every attempt fails alone instead of ending the
    # calling process.
    round_workers = None if workers == 1 and timeout is None else workers

    # (job, error type, message) for each job that failed this round.
    failed: List[Tuple[SweepJob, str, str]] = []
    attempt = 0

    def settle(group: List[SweepJob], outcomes: List[Tuple],
               group_stats: Dict[str, float]) -> None:
        """Fold one finished group into the report, in job order.

        Worker processes cannot report through process-global stats, so
        co-sim/prep savings travel back with the outcomes; ``cosim.*``
        keys land under ``sweep.cosim_*``, prep deltas keep their names.
        """
        for key, value in group_stats.items():
            if key.startswith("cosim."):
                key = "sweep.cosim_" + key[len("cosim."):]
            stats.add(key, value)
        for job, (kind, *detail) in zip(group, outcomes):
            if kind != "ok":
                stats.add(_FAILURE_COUNTERS[kind])
                failed.append((job, *detail))
                continue
            payload, seconds = detail
            if attempt:
                stats.add("sweep.recovered")
            result = _result_from_payload(payload)
            cache.store(job.cache_key(), job, result, stats=stats)
            report.results[job] = result
            report.job_seconds[job] = seconds
            stats.add("sweep.exec_seconds", seconds)
            stats.maximum("sweep.max_attempts", attempt + 1)
            if memo is not None:
                memo[job] = result
            if progress is not None:
                progress(job, result, seconds)

    while groups:
        finished: Dict[int, Tuple[List[Tuple], Dict[str, float]]] = {}
        merged = 0
        with contextlib.closing(_run_round(
                [[(job, attempt) for job in group] for group in groups],
                round_workers, timeout, stats)) as round_:
            for index, result in round_:
                finished[index] = result
                while merged in finished:
                    settle(groups[merged], *finished.pop(merged))
                    merged += 1
        if not failed or attempt == retries:
            break
        attempt += 1
        groups, failed = [[job] for job, _, _ in failed], []
        for (job,) in groups:
            stats.add("sweep.retries")
            _notify(observer, "retry", job, attempt=attempt + 1)

    for job, error_type, message in failed:
        report.failures[job] = JobFailure(
            job=job, error_type=error_type, message=message,
            attempts=attempt + 1)
        stats.add("sweep.failures")
        _notify(observer, "failure", job, error=error_type,
                attempts=attempt + 1)

    wall = time.perf_counter() - start
    stats.set("sweep.wall_seconds", wall)
    if pending and wall > 0:
        stats.set("sweep.utilization",
                  stats.get("sweep.exec_seconds") / (workers * wall))
    SWEEP_STATS.merge(stats)
    return report


# ---------------------------------------------------------------------------
# Generic helper for non-simulation fan-out (e.g. Table 2 characterization)


def parallel_map(fn: Callable, items: Sequence,
                 workers: Optional[int] = None) -> List:
    """Order-preserving parallel map over a process pool.

    *fn* must be picklable (module-level).  Falls back to a plain map for
    one worker or one item, keeping results identical either way.
    """
    items = list(items)
    workers = workers if workers is not None else default_workers()
    workers = max(1, min(workers, len(items)) if items else 1)
    if workers > 1:
        try:
            pool = multiprocessing.Pool(workers)
        except (ImportError, OSError, ValueError):
            pass  # no working multiprocessing here: map in-process
        else:
            # Context-managed: terminate() on exit, so an exception
            # mid-map cannot hang in close()/join() behind unfinished jobs.
            with pool:
                return pool.map(fn, items)
    return [fn(item) for item in items]
