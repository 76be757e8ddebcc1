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
* :func:`run_sweep` — fans pending jobs out over a ``multiprocessing``
  pool (``REPRO_SWEEP_WORKERS`` sets the default width) and merges the
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

Fault tolerance: a sweep survives individual job failures.  Each job
gets a wall-clock timeout (``REPRO_JOB_TIMEOUT`` / ``--timeout``; a
crashed worker whose result silently never arrives is bounded by the
same mechanism), bounded retries with exponential backoff
(``REPRO_SWEEP_RETRIES`` / ``--retries``, ``REPRO_SWEEP_BACKOFF``), and
failed pool jobs are re-executed inline in the parent.  When
``multiprocessing`` is unavailable or the pool cannot be created, the
sweep degrades to serial execution instead of crashing.  Jobs that
still fail after every retry become structured :class:`JobFailure`
records on the report (``SweepReport.failures``) rather than a
sweep-wide exception; callers that need all results call
:meth:`SweepReport.raise_failures`.  Pools are context-managed and
terminated on the error path, so a failing sweep never leaks or hangs
on stuck workers.

Observability: each sweep produces a :class:`SweepReport` whose
:class:`~repro.stats.StatsCollector` carries job counts, cache hit/miss
counters, per-job and total wall-clock timing, worker utilization and
the failure/recovery counters (``sweep.retries``, ``sweep.timeouts``,
``sweep.worker_errors``, ``sweep.failures``, ``sweep.recovered``,
``sweep.degraded``, ``sweep.cache_corrupt``); the same counters
accumulate process-wide in :data:`SWEEP_STATS`.  Deterministic fault
injection for all of these paths lives in :mod:`repro.faults`.
"""

from __future__ import annotations

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
BACKOFF_ENV = "REPRO_SWEEP_BACKOFF"
CACHE_BUDGET_ENV = "REPRO_CACHE_BUDGET"
CACHE_TMP_TTL_ENV = "REPRO_CACHE_TMP_TTL"

#: Age (seconds) past which an orphaned ``.tmp`` write is considered
#: dead and reaped (``REPRO_CACHE_TMP_TTL``).  Generous: no legitimate
#: atomic write stays in flight for 10 minutes.
DEFAULT_TMP_TTL = 600.0

#: Stale-tmp sweeps on cache open are rate-limited to once per directory
#: per this many seconds per process (opening a cache is frequent and
#: cheap; directory scans should not be).
_REAP_INTERVAL = 60.0

#: Retries per job after its first attempt (``REPRO_SWEEP_RETRIES``).
DEFAULT_RETRIES = 2

#: Base of the exponential retry backoff, seconds (doubles per retry).
DEFAULT_BACKOFF = 0.05

#: Bounded wait for a pool result when no explicit job timeout is set.
#: A worker that dies mid-job (OOM kill, segfault) loses its task
#: *silently* — the pool repopulates but the result never arrives — so
#: some bound must always exist or a single crash hangs the sweep.
CRASH_GUARD_SECONDS = 600.0

#: Process-wide accumulation of every sweep's counters (tests and the CLI
#: read this to verify e.g. that a warm-cache sweep executed nothing).
#: Thread-safe: sweeps and cache stores may run on several threads at
#: once (``repro sweep --attach`` runs its sweep off the main thread).
SWEEP_STATS = ThreadSafeStatsCollector()


def parse_cache_budget(text: Optional[str]) -> Optional[int]:
    """Parse a cache size budget like ``"256M"`` into bytes.

    Accepts a plain byte count or a ``K``/``M``/``G`` suffix (powers of
    1024, case-insensitive, optional trailing ``B``).  Returns None for
    an unset/empty/zero value (no budget).
    """
    if not text:
        return None
    raw = text.strip().upper()
    if raw.endswith("B"):
        raw = raw[:-1]
    scale = 1
    if raw and raw[-1] in "KMG":
        scale = 1024 ** ("KMG".index(raw[-1]) + 1)
        raw = raw[:-1]
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise ValueError(f"unparseable cache budget {text!r} "
                         "(expected bytes or K/M/G suffix)")
    return value if value > 0 else None


def default_cache_budget() -> Optional[int]:
    """Cache size budget in bytes: ``REPRO_CACHE_BUDGET`` or none."""
    return parse_cache_budget(os.environ.get(CACHE_BUDGET_ENV))


def default_tmp_ttl() -> float:
    """Orphaned-tmp age gate in seconds: ``REPRO_CACHE_TMP_TTL``."""
    override = os.environ.get(CACHE_TMP_TTL_ENV)
    if override:
        return max(0.0, float(override))
    return DEFAULT_TMP_TTL


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

    Only primitives — the job must be picklable for the worker pool and
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
    stale orphans (older than ``REPRO_CACHE_TMP_TTL``, default 10 min)
    are swept on cache open and on :meth:`clear`, counted as
    ``sweep.cache_tmp_reaped``.  An optional size budget
    (``REPRO_CACHE_BUDGET``, e.g. ``256M``) evicts least-recently-used
    entries — by mtime, which loads refresh — after each store, counted
    as ``sweep.cache_evicted``.  Every delete tolerates losing the race
    to another process (entries may vanish between listing and unlink).
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 enabled: Optional[bool] = None,
                 budget: Optional[int] = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.directory = Path(directory)
        if enabled is None:
            enabled = not env_flag(NO_CACHE_ENV)
        self.enabled = enabled
        #: Max total bytes of live entries (None = unlimited); explicit
        #: argument wins over ``REPRO_CACHE_BUDGET``.
        self.budget = budget if budget is not None else default_cache_budget()
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

    def reap_stale_tmp(self, ttl: Optional[float] = None,
                       stats: Optional[StatsCollector] = None) -> int:
        """Delete orphaned ``.tmp`` files older than *ttl* seconds.

        *ttl* defaults to ``REPRO_CACHE_TMP_TTL`` (600 s) — generous
        enough that a tmp file from a live in-flight store is never
        touched.  Returns the number reaped; each one also counts as
        ``sweep.cache_tmp_reaped``.
        """
        if not self.directory.is_dir():
            return 0
        ttl = default_tmp_ttl() if ttl is None else max(0.0, ttl)
        cutoff = time.time() - ttl
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
            if self.budget is not None:
                # LRU recency for the eviction policy: a hit refreshes
                # the entry's mtime.  Best-effort (racing eviction).
                try:
                    os.utime(path)
                except OSError:
                    pass
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
            # (aggressive TTL, concurrent wipe) won the race.  A cache
            # store losing a race must never fail the job it caches.
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
        self._evict_over_budget(stats)
        self._time("store", time.perf_counter() - start, stats)

    def _evict_over_budget(self, stats: Optional[StatsCollector]) -> None:
        """Evict oldest-mtime entries until the live set fits the budget.

        Runs after each store (a directory scan per executed job is
        noise next to the simulation it cached).  Concurrent evictors
        may race for the same victim; losing the race is fine.
        """
        if self.budget is None:
            return
        entries = []
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.budget:
            return
        entries.sort(key=lambda entry: entry[:2])
        evicted = 0
        for _, size, path in entries:
            if total <= self.budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            for collector in (stats, SWEEP_STATS):
                if collector is not None:
                    collector.add("sweep.cache_evicted", evicted)

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

    def total_bytes(self) -> int:
        """Total size of the live entries (the budget's measure)."""
        if not self.directory.is_dir():
            return 0
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

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

    Runs in a pool worker for parallel sweeps and inline for serial ones —
    the exact same code path, which is what makes parallel output
    bit-identical to serial.  *attempt* numbers re-executions of the same
    job so the fault-injection plan (if any) can behave deterministically
    across processes.
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
    """Worker entry point: never raises across the pipe.

    Exceptions become structured ``("error", type, message)`` outcomes so
    one bad job cannot abort the whole ``imap``/``apply_async`` stream;
    successes are ``("ok", payload, seconds)``.
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
    """Worker entry point for a stream-sharing group of jobs.

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
    savings counters pool workers cannot report via process-global stats.
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
                # taints every sibling: each re-runs individually inline.
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


def _make_pool(workers: int, keep_workers: bool = False
               ) -> Optional[multiprocessing.pool.Pool]:
    """A worker pool, or None when multiprocessing is unavailable.

    Each task runs in a fresh worker process unless *keep_workers*.  A
    grouped sweep's task is a whole stream group, and a worker that
    exits after its group frees everything the group loaded — program,
    stream, trained warm structures — with no teardown code.  Scattered
    sweeps and :func:`parallel_map` keep their workers, so consecutive
    tasks on one stream share a worker's caches.

    Pool creation fails on platforms without working semaphores/fork
    support (``ImportError``/``OSError``); the sweep then degrades to
    serial in-process execution instead of crashing.
    """
    try:
        return multiprocessing.Pool(
            workers, maxtasksperchild=None if keep_workers else 1)
    except (ImportError, OSError, ValueError):
        return None


def _attempt(job: SweepJob, attempt: int,
             timeout: Optional[float]) -> Tuple:
    """One inline attempt at *job*; returns a structured outcome tuple.

    With a timeout configured the job runs in a fresh single-worker pool
    so a hung simulation can actually be killed (``terminate``); without
    one — or when multiprocessing is unavailable — it runs in-process.
    Outcomes: ``("ok", payload, seconds)``, ``("error", type, message)``
    or ``("timeout", "TimeoutError", message)``.
    """
    if timeout is not None:
        pool = _make_pool(1, keep_workers=True)
        if pool is not None:
            with pool:  # __exit__ terminates: a hung worker dies here
                try:
                    return pool.apply_async(
                        _pool_task, ((job, attempt),)).get(timeout)
                except multiprocessing.TimeoutError:
                    return ("timeout", "TimeoutError",
                            f"{job.describe()} produced no result within "
                            f"{timeout:g}s (attempt {attempt})")
                except Exception as exc:
                    return ("error", type(exc).__name__, str(exc))
    try:
        payload, seconds = _execute_job(job, attempt)
        return ("ok", payload, seconds)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


def default_workers() -> int:
    """Worker-pool width: ``REPRO_SWEEP_WORKERS`` or the CPU count."""
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

    Unset or 0 means no explicit timeout (pool waits are still bounded
    by :data:`CRASH_GUARD_SECONDS` so a crashed worker cannot hang the
    sweep forever).
    """
    override = os.environ.get(TIMEOUT_ENV)
    if override:
        value = float(override)
        return value if value > 0 else None
    return None


def default_backoff() -> float:
    """Retry backoff base in seconds: ``REPRO_SWEEP_BACKOFF`` or 0.05."""
    override = os.environ.get(BACKOFF_ENV)
    if override:
        return max(0.0, float(override))
    return DEFAULT_BACKOFF


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
            lines.append("degraded      serial (multiprocessing unavailable)")
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
              backoff: Optional[float] = None,
              observer: Optional[Callable[[str, SweepJob, dict],
                                          None]] = None,
              group_streams: Optional[bool] = None
              ) -> SweepReport:
    """Run every job, fanning cache misses out over a process pool.

    Results are merged back in job order, so the report is deterministic
    regardless of worker scheduling.  The lookup order per job is:

    1. *memo* — the caller's in-process L1 (e.g. the experiment-layer
       memo), consulted and updated in place when given;
    2. the on-disk :class:`ResultCache` (L2, persistent across processes);
    3. execution — inline for ``workers == 1`` (or when multiprocessing
       is unavailable), otherwise over ``multiprocessing.Pool(workers)``.

    On the pool path, jobs sharing an oracle stream — the same
    ``(benchmark, length, warm)`` triple — are scheduled as one *group*
    on one worker (*group_streams*, default from ``REPRO_SWEEP_GROUP``,
    on unless set falsy), so the group pays stream emulation and
    warm-snapshot training once; the per-benchmark prep caches
    (:mod:`repro.sampling.prep`) are process-local, and scattering
    stream-siblings across workers rebuilds them per worker.  Each group
    runs in a fresh worker process, which exits with everything the
    group loaded; scattered sweeps keep their workers.  On the serial
    path the last group of each benchmark but the sweep's final one
    frees that benchmark's stream state
    (:func:`repro.sampling.prep.forget_benchmark`), so the calling
    process, too, holds one stream at a time, and keeps the final
    benchmark's for its next sweep.  Grouping
    never changes results — only worker placement — and the merge stays
    in submission order, so grouped and ungrouped sweeps produce
    identical reports (the test suite asserts this).  Group sizes are
    reported as ``sweep.stream_groups``; a group's wait bound scales
    with its size so grouping cannot starve the per-job *timeout*.

    A group's jobs that also share a sampling selector (and do not
    checkpoint) are *co-simulated*: one
    :func:`repro.perf.cosim.run_cosim` call advances all of their timing
    models over one shared stream, sharing decode, SoA metadata,
    warm-snapshot training and functional gap fast-forwarding.  With
    grouping off every group is one job, so nothing co-simulates;
    ``REPRO_SWEEP_GROUP=0`` is therefore the serial reference.
    Co-simulation is bit-identical to running the group's jobs back to
    back — the parity tests assert it — and its savings surface as
    ``sweep.cosim_*`` counters in the report.  A failed co-sim batch
    degrades to per-job inline retries.

    Execution is fault tolerant: a job whose pool attempt raises, times
    out (*timeout* seconds of wall clock waiting on its result, env
    ``REPRO_JOB_TIMEOUT``) or loses its worker is re-attempted inline up
    to *retries* times (env ``REPRO_SWEEP_RETRIES``) with exponential
    backoff (*backoff* base seconds, env ``REPRO_SWEEP_BACKOFF``); a job
    that fails every attempt becomes a :class:`JobFailure` in
    ``report.failures`` instead of aborting the sweep.  ``timeout=0``
    disables the explicit timeout.

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
    backoff = default_backoff() if backoff is None else max(0.0, backoff)

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

    done: set = set()
    attempts: Dict[SweepJob, int] = {job: 0 for job in pending}
    last_error: Dict[SweepJob, Tuple[str, str]] = {}
    retry_queue: List[SweepJob] = []

    def merge(job: SweepJob, payload: Dict[str, Any],
              seconds: float) -> None:
        """Fold one successful outcome into the report (job order for
        the pool phase, recovery order for retried jobs)."""
        done.add(job)
        result = _result_from_payload(payload)
        cache.store(job.cache_key(), job, result, stats=stats)
        report.results[job] = result
        report.job_seconds[job] = seconds
        stats.add("sweep.exec_seconds", seconds)
        stats.maximum("sweep.max_attempts", attempts[job])
        if memo is not None:
            memo[job] = result
        if progress is not None:
            progress(job, result, seconds)

    def fold_group_stats(group_stats: Dict[str, float]) -> None:
        """Fold a group task's counters into the sweep stats.

        Pool workers are separate processes, so co-sim/prep savings
        travel back in the group task's return value; ``cosim.*`` keys
        land under ``sweep.cosim_*``, prep deltas keep their names.
        """
        for key, value in group_stats.items():
            if key.startswith("cosim."):
                key = "sweep.cosim_" + key[len("cosim."):]
            stats.add(key, value)

    def run_group_inline(group: List[SweepJob]) -> None:
        """One group, executed in-process (serial path, no timeout)."""
        for job in group:
            attempts[job] = 1
        outcomes, group_stats = _pool_group_task(
            [(job, 0) for job in group])
        fold_group_stats(group_stats)
        for job, outcome in zip(group, outcomes):
            if outcome[0] == "ok":
                merge(job, outcome[1], outcome[2])
            else:
                stats.add("sweep.worker_errors")
                last_error[job] = (outcome[1], outcome[2])
                retry_queue.append(job)

    if pending:
        pool = None
        if workers > 1:
            # Grouped: one fresh worker per stream group (_make_pool).
            pool = (_make_pool(workers) if group_streams
                    else _make_pool(workers, keep_workers=True))
        if workers > 1 and pool is None:
            stats.set("sweep.degraded", 1)
        if pool is None:
            if timeout is None:
                # Serial (or degraded) path: groups still run as groups
                # — sharing prep work and co-simulating exactly like a
                # pool worker would — so single-stream sweeps (where the
                # worker clamp lands on 1) get the same savings.  Like
                # a pool worker's exit, a benchmark's last group frees
                # its stream state before the sweep moves on, so the
                # process holds one stream at a time.  The final
                # group's stays cached for the caller: a later sweep on
                # that stream reuses it.
                last_group = {group[0].benchmark: index
                              for index, group in enumerate(groups)}
                final = len(groups) - 1
                for index, group in enumerate(groups):
                    run_group_inline(group)
                    if (index < final
                            and last_group[group[0].benchmark] == index):
                        prep.forget_benchmark(group[0].benchmark)
            else:
                # A timeout needs per-job kill-able pools: every job
                # goes through the inline attempt loop below, first
                # attempt included.
                retry_queue = list(pending)
        else:
            # The pool is context-managed: __exit__ calls terminate(),
            # so an error path (or a worker still chewing on a hung or
            # timed-out job) cannot block in close()/join() or leak
            # worker processes.
            wait = timeout if timeout is not None else CRASH_GUARD_SECONDS
            with pool:
                # One async task per stream group (a singleton list per
                # job when grouping is off): the worker runs the group's
                # jobs back to back and returns per-job outcomes in job
                # order, so the merge below is still deterministic.
                handles = [
                    (group,
                     pool.apply_async(_pool_group_task,
                                      ([(job, 0) for job in group],)))
                    for group in groups]
                # No more tasks.  A worker that exits while any task
                # is still running is replaced all the same, so a
                # grouped sweep forks one idle worker more than it has
                # groups (3 groups on 2 workers start 4); the idle
                # fork sits beside one busy worker, not two, so it
                # never sets the sweep's peak memory.
                pool.close()
                for group, handle in handles:
                    for job in group:
                        attempts[job] = 1
                    # The whole group shares one pool result, so the
                    # wait bound scales with the group size: each job
                    # still gets its full per-job budget.
                    try:
                        outcomes, group_stats = handle.get(
                            wait * len(group))
                    except multiprocessing.TimeoutError:
                        # Either a job overran its budget or the worker
                        # died and the result will never arrive; every
                        # job of the group is retried inline (completed
                        # siblings re-execute — fault-path correctness
                        # over efficiency).
                        for job in group:
                            stats.add("sweep.timeouts"
                                      if timeout is not None
                                      else "sweep.worker_crashes")
                            last_error[job] = (
                                "TimeoutError",
                                f"no result within {wait * len(group):g}s "
                                "(worker hung, overloaded or crashed)")
                            retry_queue.append(job)
                        continue
                    except Exception as exc:
                        for job in group:
                            stats.add("sweep.worker_crashes")
                            last_error[job] = (type(exc).__name__,
                                               str(exc))
                            retry_queue.append(job)
                        continue
                    fold_group_stats(group_stats)
                    for job, outcome in zip(group, outcomes):
                        if outcome[0] == "ok":
                            merge(job, outcome[1], outcome[2])
                        else:
                            stats.add("sweep.worker_errors")
                            last_error[job] = (outcome[1], outcome[2])
                            retry_queue.append(job)

    # Inline (re-)execution: first attempts on the serial path, recovery
    # attempts for everything the pool could not finish.
    for job in retry_queue:
        while job not in done and attempts[job] <= retries:
            n = attempts[job]
            if n:  # a retry, not a first attempt
                stats.add("sweep.retries")
                _notify(observer, "retry", job, attempt=n + 1)
                delay = backoff * (2 ** (n - 1))
                if delay > 0:
                    time.sleep(delay)
            attempts[job] = n + 1
            outcome = _attempt(job, n, timeout)
            if outcome[0] == "ok":
                if n:
                    stats.add("sweep.recovered")
                merge(job, outcome[1], outcome[2])
            else:
                stats.add("sweep.timeouts" if outcome[0] == "timeout"
                          else "sweep.worker_errors")
                last_error[job] = (outcome[1], outcome[2])
        if job not in done:
            error_type, message = last_error.get(
                job, ("UnknownError", "no attempt recorded"))
            report.failures[job] = JobFailure(
                job=job, error_type=error_type, message=message,
                attempts=attempts[job])
            stats.add("sweep.failures")
            _notify(observer, "failure", job, error=error_type,
                    attempts=attempts[job])

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
    pool = _make_pool(workers, keep_workers=True) if workers > 1 else None
    if pool is None:
        return [fn(item) for item in items]
    # Context-managed: terminate() on exit, so an exception mid-map
    # cannot hang in close()/join() behind unfinished jobs.
    with pool:
        return pool.map(fn, items)
