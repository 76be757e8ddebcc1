"""Live telemetry: publish read-only snapshots of a running simulation.

A :class:`LiveTelemetry` instance snapshots the pipeline gauges from
:mod:`repro.obs.metrics` plus run progress — committed instructions,
IPC-so-far, recovery count, latest durable-checkpoint ordinal, and (in
interval-sampled mode) unit/confidence progress — every
``LiveConfig.every`` simulated cycles, and writes the most recent
``LiveConfig.history`` snapshots as NDJSON into a status file that is
replaced atomically on every publish.  ``repro attach`` (and any
``tail``-grade tooling) polls that file; the publisher never listens on
anything and never blocks the simulation on a reader.

The hard contract, shared with the rest of :mod:`repro.obs`: attaching a
publisher must leave the simulated results **bit-identical**.  Three
rules enforce it:

* every quantity published is obtained by pure inspection
  (:func:`repro.obs.metrics.read_gauges`, ``stats.get``, plain
  attribute reads) — nothing is ticked, popped or cached on the
  processor;
* publishing never touches ``processor.stats`` — wall-clock and
  sequence numbers live only in the snapshot lines;
* the publish cadence is keyed off the simulated cycle, so deciding
  *whether* to publish reads the same state with or without a reader
  attached.

A regression test runs the same simulation with and without
``REPRO_LIVE=1`` (full-detail and sampled) and asserts equal counters.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.config import LiveConfig
from repro.obs.metrics import GAUGE_NAMES, read_gauges

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.processor import Processor

#: Stamped into every snapshot as ``"v"``; bump on breaking changes.
SCHEMA_VERSION = 1

#: Default status-file directory, relative to the working directory.
DEFAULT_DIR = ".repro_live"

#: Keys every snapshot line must carry (see :func:`validate_snapshot`).
REQUIRED_KEYS = frozenset((
    "v", "seq", "pid", "state", "mode", "cycle", "committed", "ipc",
    "gauges", "wall",
))

#: Lifecycle states a snapshot may report.
STATES = ("running", "done")

#: Unique tmp-file suffixes so concurrent publishers (e.g. sweep workers
#: sharing a directory) never clobber each other's in-flight writes.
_TMP_SEQ = count()


def default_path(pid: Optional[int] = None) -> str:
    """Status-file path used when ``REPRO_LIVE_PATH`` is not set.

    Keyed by pid so ``repro attach <pid>`` can find the file for a
    specific process, and concurrent runs in one directory do not fight.
    """
    return os.path.join(DEFAULT_DIR, f"run-{pid or os.getpid()}.ndjson")


def default_sweep_path(pid: Optional[int] = None) -> str:
    """Status-file path a :class:`SweepFleet` publishes to by default."""
    return os.path.join(DEFAULT_DIR, f"sweep-{pid or os.getpid()}.ndjson")


def _write_ring(path: str, ring: "Deque[Dict[str, object]]") -> None:
    """Atomically replace *path* with *ring* as NDJSON.

    Same discipline as the checkpoint store: write a uniquely-named
    sibling tmp file, then ``os.replace`` it over the destination so a
    reader only ever sees a complete file.  Failures are swallowed —
    telemetry must never take down the run it is watching (disk full,
    unlinked directory...).
    """
    tmp = f"{path}.tmp.{os.getpid()}-{next(_TMP_SEQ)}"
    payload = "".join(
        json.dumps(snapshot, separators=(",", ":")) + "\n"
        for snapshot in ring)
    try:
        with io.open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def validate_snapshot(snapshot: object) -> List[str]:
    """Schema-check one snapshot; returns problems (empty list = valid).

    Used by the attach CLI's ``--json`` mode and by CI so a drifting
    publisher fails loudly instead of rendering garbage.
    """
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    problems = []
    missing = sorted(REQUIRED_KEYS - snapshot.keys())
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
        return problems
    if snapshot["v"] != SCHEMA_VERSION:
        problems.append(f"schema version {snapshot['v']!r}, "
                        f"expected {SCHEMA_VERSION}")
    if snapshot["state"] not in STATES:
        problems.append(f"unknown state {snapshot['state']!r}")
    for key in ("seq", "pid", "cycle", "committed"):
        value = snapshot[key]
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key} must be a non-negative integer, "
                            f"got {value!r}")
    for key in ("ipc", "wall"):
        if not isinstance(snapshot[key], (int, float)):
            problems.append(f"{key} must be numeric, got {snapshot[key]!r}")
    gauges = snapshot["gauges"]
    if not isinstance(gauges, dict):
        problems.append("gauges must be an object")
    else:
        for name, value in gauges.items():
            if not isinstance(value, (int, float)):
                problems.append(f"gauge {name} is not numeric: {value!r}")
    return problems


def read_snapshots(path: str) -> List[Dict[str, object]]:
    """Parse a status file into snapshots, oldest first.

    Liberal on input: a missing file yields ``[]`` and unparsable lines
    are skipped (the writer replaces the file atomically, but a reader
    may race a publisher from an older schema).
    """
    try:
        with io.open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return []
    snapshots = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        if isinstance(parsed, dict):
            snapshots.append(parsed)
    return snapshots


class LiveTelemetry:
    """Publishes run snapshots to an atomically-replaced NDJSON file."""

    def __init__(self, config: LiveConfig,
                 benchmark: Optional[str] = None,
                 config_name: Optional[str] = None,
                 mode: str = "full"):
        self.config = config
        self.path = config.path or default_path()
        self.benchmark = benchmark
        self.config_name = config_name
        self.mode = mode
        self._ring: Deque[Dict[str, object]] = deque(maxlen=config.history)
        self._seq = 0
        self._start = time.monotonic()
        self._checkpoint: Optional[int] = None
        self._sampling: Optional[Dict[str, object]] = None
        self._limits: Optional[Dict[str, int]] = None
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    # -- side-channel annotations -----------------------------------------

    def note_checkpoint(self, ordinal: int) -> None:
        """Record the latest durable-checkpoint ordinal for snapshots."""
        self._checkpoint = ordinal

    def note_sampling(self, **progress: object) -> None:
        """Record sampled-mode progress (unit index, CI half-width...).

        The sampling engine calls this at unit boundaries; the values
        ride along on every subsequent snapshot under ``"sampling"``.
        """
        if self._sampling is None:
            self._sampling = {}
        self._sampling.update(progress)

    # -- publishing --------------------------------------------------------

    def maybe_publish(self, processor: "Processor") -> None:
        """Publish when the simulated cycle hits the configured cadence.

        Mirrors ``MetricsRecorder.maybe_sample``: the gate reads only
        ``processor.now``, so the decision is identical whether or not
        anyone is watching the status file.
        """
        if processor.now % self.config.every:
            return
        self.publish(processor)

    def publish(self, processor: "Processor", state: str = "running") -> None:
        """Append one snapshot of *processor* and rewrite the status file."""
        self._ring.append(self.snapshot(processor, state))
        self._write()

    def publish_final(self, processor: "Processor") -> None:
        """Publish the terminal snapshot (``state="done"``)."""
        self.publish(processor, state="done")

    def snapshot(self, processor: "Processor",
                 state: str = "running") -> Dict[str, object]:
        """Build one snapshot dict via read-only processor inspection."""
        if self._limits is None:
            frontend = processor.config.frontend
            self._limits = {
                "fragbuf.occupancy": frontend.num_fragment_buffers,
                "window.used": processor.config.backend.window_size,
                "sequencers.busy": frontend.sequencers,
                "fragments.in_flight": frontend.num_fragment_buffers,
            }
        now = processor.now
        committed = processor.committed
        stats = processor.stats
        snapshot: Dict[str, object] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "pid": os.getpid(),
            "state": state,
            "mode": self.mode,
            "benchmark": self.benchmark,
            "config": self.config_name,
            "cycle": now,
            "committed": committed,
            "total": processor.stream_length,
            "ipc": (committed / now) if now else 0.0,
            "gauges": dict(zip(GAUGE_NAMES, read_gauges(processor))),
            "limits": self._limits,
            "recoveries": stats.get("frontend.recoveries"),
            "liveout_mispredictions": stats.get("rename.liveout_mispredicts"),
            "checkpoint": self._checkpoint,
            "sampling": dict(self._sampling) if self._sampling else None,
            "wall": time.monotonic() - self._start,
        }
        obs = processor.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None and profiler.seconds:
            snapshot["profile"] = {
                phase: round(seconds, 6)
                for phase, seconds in profiler.seconds.items()}
        self._seq += 1
        return snapshot

    def _write(self) -> None:
        """Atomically replace the status file with the snapshot ring."""
        _write_ring(self.path, self._ring)


class SweepFleet:
    """Aggregated live telemetry for one sweep: one publisher, N jobs.

    Fed from :func:`~repro.experiments.runner.run_sweep`'s ``progress``
    and ``observer`` hooks and published with the same atomic NDJSON
    discipline as :class:`LiveTelemetry`, but fleet-shaped
    (``jobs_done``, ``cache_hits``, ``retries``, cumulative
    ``committed``...) plus a short per-job tail for the attach table.
    Thread-safe: sweeps drive their hooks from whatever thread runs
    them, while ``repro sweep --attach`` renders from the main thread.
    """

    #: Recent per-job outcomes carried in each snapshot for the table.
    RECENT = 12

    def __init__(self, config: LiveConfig, jobs_total: int,
                 tag: Optional[str] = None):
        self.config = config
        self.path = config.path or default_sweep_path()
        self.tag = tag
        self.jobs_total = jobs_total
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, object]] = deque(maxlen=config.history)
        self._recent: Deque[Dict[str, object]] = deque(maxlen=self.RECENT)
        self._seq = 0
        self._start = time.monotonic()
        self.jobs_done = 0          # executed to completion
        self.cache_hits = 0
        self.jobs_failed = 0
        self.retries = 0
        self.committed = 0
        self.cycles = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    # -- run_sweep hooks ---------------------------------------------------

    def note_done(self, job: object, result: object,
                  seconds: float) -> None:
        """``progress`` hook: one job executed to completion."""
        with self._lock:
            self.jobs_done += 1
            self.committed += int(getattr(result, "committed", 0))
            self.cycles += int(getattr(result, "cycles", 0))
            self._recent.append({
                "job": self._describe(job),
                "status": "done",
                "ipc": round(getattr(result, "ipc", 0.0), 3),
                "seconds": round(seconds, 2),
            })
        self.publish()

    def observe(self, kind: str, job: object, info: Dict[str, object]
                ) -> None:
        """``observer`` hook: cache hits, retries and failures."""
        with self._lock:
            if kind == "cached":
                self.cache_hits += 1
                self._recent.append({
                    "job": self._describe(job),
                    "status": str(info.get("source", "cache")),
                })
            elif kind == "retry":
                self.retries += 1
            elif kind == "failure":
                self.jobs_failed += 1
                self._recent.append({
                    "job": self._describe(job),
                    "status": f"FAILED:{info.get('error', '?')}",
                })
            else:
                return
        self.publish()

    @staticmethod
    def _describe(job: object) -> str:
        describe = getattr(job, "describe", None)
        return describe() if callable(describe) else str(job)

    # -- publishing --------------------------------------------------------

    def snapshot(self, state: str = "running") -> Dict[str, object]:
        """One fleet-shaped snapshot (caller need not hold the lock)."""
        with self._lock:
            snapshot: Dict[str, object] = {
                "seq": self._seq,
                "pid": os.getpid(),
                "state": state,
                "tag": self.tag,
                "committed": self.committed,
                "ipc": round(self.committed / self.cycles, 6)
                       if self.cycles else 0.0,
                "jobs_done": self.jobs_done,
                "jobs_total": self.jobs_total,
                "jobs_failed": self.jobs_failed,
                "cache_hits": self.cache_hits,
                "retries": self.retries,
                "jobs": list(self._recent),
                "wall": round(time.monotonic() - self._start, 3),
            }
            self._seq += 1
        return snapshot

    def history(self) -> List[Dict[str, object]]:
        """Published snapshots, oldest first (for sparkline renderers)."""
        with self._lock:
            return list(self._ring)

    def publish(self, state: str = "running") -> None:
        """Append one snapshot and rewrite the status file."""
        snapshot = self.snapshot(state)
        with self._lock:
            self._ring.append(snapshot)
            _write_ring(self.path, self._ring)

    def publish_final(self) -> None:
        """Publish the terminal snapshot (``state="done"``)."""
        self.publish(state="done")
