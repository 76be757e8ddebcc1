"""Durable checkpoint/restore for long simulations.

PR 5 built the in-memory checkpoint seam — ``Processor.run_until`` /
``restart_at`` plus warm-snapshot cloning via ``adopt_state`` — so
sampled runs could hop between measurement windows.  This module
generalizes that seam into *durable* simulation state: a complete warmed
processor snapshot (predictor tables, cache and trace-cache tags, MSHR
state, commit index, ``now``, stats — RNG-free by construction) is
pickled to disk under ``.repro_cache/checkpoints/`` every N committed
instructions, and an interrupted run resumes from the nearest valid
snapshot instead of from zero.

Determinism contract
--------------------

A checkpoint is taken at a *drained* pipeline boundary: the driver runs
to the boundary with :meth:`~repro.core.processor.Processor.run_until`,
stores the snapshot, then re-enters via ``restart_at`` — exactly the
discipline sampled windows use.  Draining at boundaries is part of the
run's schedule, so the checkpoint cadence is part of the run's identity:
a run checkpointed every N instructions, killed, and resumed is
**bit-identical** (counters included) to an uninterrupted run *with the
same cadence* — and that cadence therefore joins the sweep cache key
(see :meth:`repro.experiments.runner.SweepJob.cache_key`).  Sampled runs
already restart at every window, so checkpointing adds no perturbation
there at all: sampled results are bit-identical with checkpointing on or
off.

Durability discipline
---------------------

Snapshots are written atomically (unique tmp + ``os.replace``) and
validated on load; a corrupt snapshot (torn write, pickle drift,
injected ``checkpoint_corrupt`` fault) is quarantined to
``*.ckpt.corrupt`` and resume falls back to the previous snapshot — or
to zero — instead of failing.  This mirrors ``ResultCache``'s quarantine
policy exactly.

Checkpoint bookkeeping (stores, loads, resumes, corruption, fallbacks)
is counted on the module-level :data:`CHECKPOINT_STATS` collector, never
on the processor's own stats — polluting ``processor.stats`` would break
the bit-identity contract the counters are asserting.

Knobs: ``REPRO_CHECKPOINT`` (interval in committed instructions; unset
or 0 disables), ``REPRO_CHECKPOINT_DIR`` (store location, default
``<cache dir>/checkpoints``), ``REPRO_CHECKPOINT_KEEP`` (snapshots
retained per run, default 2 so one corrupt tail still leaves a fallback).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro import faults
from repro.config import ProcessorConfig, env_flag, env_int
from repro.frontend.trace_cache import TraceCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.liveout import LiveOutPredictor
from repro.predictors.trace_predictor import TracePredictor
from repro.sampling.prep import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from repro.stats import StatsCollector, ThreadSafeStatsCollector

#: Interval, in committed instructions, between snapshots (0/unset: off).
CHECKPOINT_ENV = "REPRO_CHECKPOINT"
#: Override for the snapshot directory (default ``<cache dir>/checkpoints``).
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"
#: Snapshots retained per run fingerprint (default 2).
CHECKPOINT_KEEP_ENV = "REPRO_CHECKPOINT_KEEP"

DEFAULT_KEEP = 2

#: Bump to invalidate on-disk snapshots when captured state changes shape
#: (2: caches, trace cache and live-out sets pickle as per-set tuples,
#: trace-predictor entries as ``(key, counter)`` tuples; 3: trace-predictor
#: histories as tuples, without the predictor's ID memo).
CHECKPOINT_VERSION = 3

#: Process-wide checkpoint observability (thread-safe: library callers
#: may run checkpointed simulations on several threads at once).  Counts
#: ``checkpoint.stored`` / ``loaded`` / ``resumed`` / ``corrupt`` /
#: ``fallback`` / ``pruned`` plus the overhead gauges
#: ``checkpoint.store_seconds`` / ``load_seconds`` / ``bytes`` (so
#: durable-run cost shows up in sweep reports) — deliberately *not* on
#: ``processor.stats``, which must stay bit-identical across
#: kill/resume.
CHECKPOINT_STATS = ThreadSafeStatsCollector()

#: Unique tmp-name sequence (same discipline as ``ResultCache``).
_TMP_SEQ = itertools.count()


def resolve_checkpoint_every(value: object = None) -> Optional[int]:
    """Resolve a checkpoint interval to a positive int or None (off).

    ``None`` defers to ``REPRO_CHECKPOINT``; ``0``/``False`` force off
    (sweep workers pass the job's explicit value through this so worker
    environments cannot skew result identity).
    """
    if value is None:
        if not env_flag(CHECKPOINT_ENV):
            return None
        every = env_int(CHECKPOINT_ENV, 0)
    else:
        every = int(value)
    return every if every > 0 else None


def resolve_keep() -> int:
    """Snapshots retained per run (``REPRO_CHECKPOINT_KEEP``, min 1)."""
    return max(1, env_int(CHECKPOINT_KEEP_ENV, DEFAULT_KEEP))


def default_checkpoint_dir() -> Path:
    """The snapshot directory: explicit override or ``<cache dir>/checkpoints``."""
    explicit = os.environ.get(CHECKPOINT_DIR_ENV)
    if explicit:
        return Path(explicit)
    root = Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)
    return root / "checkpoints"


def run_fingerprint(config: ProcessorConfig, stream_fp: str, warm: bool,
                    sampling: Optional[Tuple[int, ...]],
                    every: int) -> str:
    """Identity of one checkpointable run.

    Everything that shapes the deterministic execution joins the digest:
    the resolved config (``repr`` covers every field, the same content
    key the result cache uses), the stream's cross-process fingerprint,
    warming, the sampling parameters, the checkpoint cadence itself
    (boundaries drain the pipeline, so cadence changes the schedule) and
    the snapshot format version.  A snapshot is only ever restored into
    a run with the same fingerprint.
    """
    payload = "|".join((
        f"v{CHECKPOINT_VERSION}",
        stream_fp,
        repr(config),
        f"warm={bool(warm)}",
        f"sampling={tuple(sampling) if sampling else None}",
        f"every={every}",
    ))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"{stream_fp}-{digest}"


class ProcessorSnapshot:
    """A complete warmed processor state at a drained commit boundary.

    Captured structures are *clones* (fresh structures built from the
    config, then ``adopt_state``'d from the live processor), so the
    snapshot shares no mutable state with the running simulation and
    pickles without dragging the oracle stream or program along.  The
    decode cache is deliberately not captured, nor is the trace
    predictor's ID memo pickled: they are pure memos whose contents
    never affect results (golden-parity tested), so a resumed run
    simply re-fills them cold.
    """

    __slots__ = ("version", "fingerprint", "index", "now", "stats_state",
                 "bimodal", "trace_predictor", "liveout_predictor",
                 "memory", "trace_cache", "imshrs", "dmshrs", "extra")

    @classmethod
    def capture(cls, processor, fingerprint: str,
                extra: Optional[dict] = None) -> "ProcessorSnapshot":
        """Snapshot *processor* (which must sit at a drained boundary).

        *extra* carries driver-level loop state (the sampled engine's
        accumulators); it must be plain picklable data.
        """
        config = processor.config
        stats = StatsCollector()
        snap = cls()
        snap.version = CHECKPOINT_VERSION
        snap.fingerprint = fingerprint
        snap.index = processor.committed
        snap.now = processor.now
        snap.stats_state = processor.stats.state()
        snap.bimodal = BimodalPredictor(stats=stats)
        snap.bimodal.adopt_state(processor.bimodal)
        snap.trace_predictor = TracePredictor(config.trace_predictor, stats)
        snap.trace_predictor.adopt_state(processor.trace_predictor)
        snap.liveout_predictor = LiveOutPredictor(config.liveout_predictor,
                                                  stats)
        snap.liveout_predictor.adopt_state(processor.liveout_predictor)
        snap.memory = MemoryHierarchy(config.memory, stats)
        snap.memory.l1i.adopt_state(processor.memory.l1i)
        snap.memory.l1d.adopt_state(processor.memory.l1d)
        snap.memory.l2.adopt_state(processor.memory.l2)
        snap.trace_cache = None
        if processor.trace_cache is not None:
            snap.trace_cache = TraceCache(config.frontend.trace_cache, stats)
            snap.trace_cache.adopt_state(processor.trace_cache)
        # MSHRs survive restart_at (in-flight misses stay in flight
        # across windows), so they are warm state: dropping them would
        # make a resumed run diverge from the uninterrupted one.
        snap.imshrs = dict(processor.memory.iport._mshrs)
        snap.dmshrs = dict(processor.memory.dport._mshrs)
        snap.extra = extra
        return snap

    def restore(self, processor) -> None:
        """Restore this snapshot into *processor* (same config/stream).

        Leaves the processor exactly where the capturing run stood after
        storing: warm state adopted, stats and ``now`` rewound, pipeline
        re-entered at the snapshot's commit index.
        """
        processor.adopt_warm_state(self)
        processor.memory.iport._mshrs = dict(self.imshrs)
        processor.memory.dport._mshrs = dict(self.dmshrs)
        processor.stats.restore_state(self.stats_state)
        processor.now = self.now
        processor.restart_at(self.index)


class CheckpointManager:
    """Atomic on-disk store for one run's snapshots.

    Snapshot files are ``<fingerprint>-<index>.ckpt`` under the
    checkpoint directory; writes go through a unique tmp name and
    ``os.replace`` (crash leaves either the old file set or the new one,
    never a torn snapshot under the real name), and loads validate
    version/fingerprint/index before trusting a file.  A snapshot that
    fails to load is quarantined to ``*.ckpt.corrupt`` and
    :meth:`latest` falls back to the next-older one.
    """

    def __init__(self, fingerprint: str,
                 directory: Optional[os.PathLike] = None,
                 keep: Optional[int] = None,
                 description: str = ""):
        self.fingerprint = fingerprint
        self.directory = (Path(directory) if directory is not None
                          else default_checkpoint_dir())
        self.keep = keep if keep is not None else resolve_keep()
        #: Human-readable run label fault-plan ``match=`` selectors see.
        self.description = description or fingerprint

    def path_for(self, index: int) -> Path:
        """The snapshot file for commit *index*."""
        return self.directory / f"{self.fingerprint}-{index:010d}.ckpt"

    def store(self, snapshot: ProcessorSnapshot,
              ordinal: Optional[int] = None) -> Optional[Path]:
        """Durably persist *snapshot*; returns its path (None on I/O error).

        Best-effort: a full disk never kills the simulation, it only
        costs resumability.  *ordinal* is the absolute checkpoint number
        for this run (``index // every``) — the ``kill_mid_unit`` fault
        fires on it *after* the rename, so the snapshot an injected kill
        leaves behind is always durable.
        """
        t0 = time.perf_counter()
        data = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        plan = faults.active_plan()
        if plan is not None:
            data = plan.on_checkpoint_write(self.description, data)
        path = self.path_for(snapshot.index)
        tmp = path.with_suffix(f".tmp.{os.getpid()}-{next(_TMP_SEQ)}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return None
        CHECKPOINT_STATS.add("checkpoint.stored")
        CHECKPOINT_STATS.add("checkpoint.bytes", len(data))
        CHECKPOINT_STATS.add("checkpoint.store_seconds",
                             time.perf_counter() - t0)
        self._prune()
        if plan is not None and ordinal is not None:
            plan.on_checkpoint_stored(self.description, ordinal)
        return path

    def latest(self) -> Optional[ProcessorSnapshot]:
        """The newest valid snapshot for this run, or None.

        Walks candidates newest-first; anything unreadable or failing
        validation is quarantined and the walk continues with the next-
        older snapshot — or, with nothing left, falls back to a from-
        zero run (either degradation counted as ``checkpoint.fallback``)
        — so a torn tail costs one interval, never the run.
        """
        newest = True
        for index, path in self._candidates():
            t0 = time.perf_counter()
            try:
                with open(path, "rb") as handle:
                    snap = pickle.load(handle)
                if not isinstance(snap, ProcessorSnapshot):
                    raise ValueError("not a ProcessorSnapshot")
                if (snap.version != CHECKPOINT_VERSION
                        or snap.fingerprint != self.fingerprint
                        or snap.index != index):
                    raise ValueError("snapshot metadata mismatch")
            except Exception:
                self._quarantine(path)
                newest = False
                continue
            CHECKPOINT_STATS.add("checkpoint.loaded")
            CHECKPOINT_STATS.add("checkpoint.load_seconds",
                                 time.perf_counter() - t0)
            if not newest:
                CHECKPOINT_STATS.add("checkpoint.fallback")
            return snap
        if not newest:
            CHECKPOINT_STATS.add("checkpoint.fallback")
        return None

    def clear(self) -> None:
        """Remove every snapshot (and stale tmp) for this run.

        Called when a run completes: its checkpoints have served their
        purpose, and leaving them would only cost disk against the cache
        budget.
        """
        for _, path in self._candidates():
            try:
                path.unlink()
            except OSError:
                pass
        if self.directory.is_dir():
            for tmp in self.directory.glob(f"{self.fingerprint}-*.tmp.*"):
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def _candidates(self) -> List[Tuple[int, Path]]:
        """(index, path) for every snapshot file, newest first."""
        if not self.directory.is_dir():
            return []
        prefix_len = len(self.fingerprint) + 1
        found = []
        for path in self.directory.glob(f"{self.fingerprint}-*.ckpt"):
            try:
                index = int(path.name[prefix_len:-5])
            except ValueError:
                continue
            found.append((index, path))
        return sorted(found, reverse=True)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt snapshot aside (``*.ckpt.corrupt``) and count it."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - concurrent quarantine
            pass
        CHECKPOINT_STATS.add("checkpoint.corrupt")

    def _prune(self) -> None:
        """Drop snapshots beyond the newest ``keep``."""
        for _, path in self._candidates()[self.keep:]:
            try:
                path.unlink()
            except OSError:
                continue
            CHECKPOINT_STATS.add("checkpoint.pruned")

