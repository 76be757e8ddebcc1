"""Per-benchmark preparation caches.

Every job sharing (benchmark, length, warm-relevant config) used to redo
the same work per run: functional emulation of the oracle stream,
fragment carving, and predictor training.  This module caches each stage
at process level and — for oracle streams of suite benchmarks — on disk
under the existing ``.repro_cache/`` directory, so fresh sweep worker
processes skip re-emulation entirely.

Three layers:

* :func:`get_oracle` — one entry point resolving a benchmark name *or* an
  ad-hoc :class:`~repro.isa.program.Program` to its decoded program and
  oracle stream, through the in-process caches (suite module / ad-hoc
  memo) and the on-disk stream cache.
* :func:`warm_from_snapshot` — functional warming via a cached
  *trained-predictor snapshot*: donor structures are trained once per
  (stream, warm-config) and cloned into each run's processor with the
  structures' ``adopt_state`` methods.  Training is deterministic, so
  the clone is bit-identical to retraining (the test suite asserts it).
* The disk layer shares ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``
  semantics with :mod:`repro.experiments.runner`'s result cache.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.config import ProcessorConfig, env_flag
from repro.emulator.machine import Machine
from repro.emulator.stream import (
    ExecutionResult,
    decode_stream,
    encode_stream,
)
from repro.frontend.trace_cache import TraceCache
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.liveout import LiveOutPredictor
from repro.predictors.trace_predictor import TracePredictor
from repro.stats import StatsCollector, ThreadSafeStatsCollector
from repro.workloads import suite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.processor import Processor

#: Same knobs as the experiment result cache (repro.experiments.runner).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"
DEFAULT_CACHE_DIR = ".repro_cache"

#: Process-wide prep-cache observability (thread-safe: library callers
#: may run simulations — and therefore prep-cache loads — on several
#: threads at once).  ``prep.stream_corrupt`` counts quarantined bundles;
#: ``prep.snapshot_trains`` / ``prep.snapshot_hits`` count warm-snapshot
#: builds versus clones served from the in-process cache (grouped sweeps
#: drive the hit rate up — see ``REPRO_SWEEP_GROUP``).
PREP_STATS = ThreadSafeStatsCollector()

#: Bump to invalidate on-disk streams when the emulator/ISA changes shape.
STREAM_CACHE_VERSION = 1

#: File suffix of an on-disk stream bundle, ``{name}-{digest}-{length}``
#: plus this.  The superseded format (one pickled object per record)
#: used ``.pkl``; its files are never read, and storing a stream deletes
#: that stream's ones.
BUNDLE_SUFFIX = ".cols"

#: A stream identity: ("bench", name, stream length) for suite
#: benchmarks, ("program", id, stream length) for ad-hoc programs.
StreamKey = Tuple[str, object, int]

#: Ad-hoc program -> (requested length, result).  Keyed by object id;
#: the entry pins the program so the id cannot be recycled.
_adhoc_streams: Dict[int, Tuple[Program, int, ExecutionResult]] = {}
#: (program id, length) -> memoized sliced view.
_adhoc_slices: Dict[Tuple[int, int], ExecutionResult] = {}

#: A warm-snapshot identity: the stream plus the warm-config digest.
SnapshotKey = Tuple[StreamKey, str]

#: Trained warm-state snapshots, LRU-capped (each holds predictor tables
#: plus full L1/L2/trace-cache tag state — small, but not free).  Serves
#: serial runs; co-sim groups clone from their own mapping instead (see
#: :func:`warm_group_snapshots`).
_snapshots: "OrderedDict[SnapshotKey, _WarmSnapshot]" = OrderedDict()
_SNAPSHOT_CAP = 8


def _disk_enabled() -> bool:
    return not env_flag(NO_CACHE_ENV)


def _stream_dir() -> Path:
    root = Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)
    return root / "streams"


def _stream_digest(name: str) -> str:
    """Content key for a suite benchmark's stream: the workload spec
    fully determines the program, and emulation is deterministic."""
    spec = suite.get_spec(name)
    payload = f"v{STREAM_CACHE_VERSION}|{name}|{spec!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _bundle_length(path: Path, prefix: str) -> Optional[int]:
    """The requested length in a bundle file name, None if malformed."""
    try:
        return int(path.name[len(prefix):-len(BUNDLE_SUFFIX)])
    except ValueError:
        return None


def _load_stream_from_disk(name: str, length: int) -> Optional[int]:
    """Seed the suite's in-process caches from the on-disk prep cache.

    Each bundle holds the pickled program plus its oracle stream packed
    by :func:`~repro.emulator.stream.encode_stream`; decoding binds the
    records to the bundled program's own instruction objects, exactly
    as a fresh generate+emulate would.  Returns the requested-length of
    the loaded entry (the shortest cached stream covering *length*), or
    None on a miss.  A corrupt bundle (torn write, pickle drift,
    hand-edit, columns that do not fit the program) is quarantined to
    ``<bundle>.corrupt`` and counted as ``prep.stream_corrupt`` — the
    same policy as the result cache, and unlike a silent unlink it
    leaves the evidence on disk for postmortems.
    """
    directory = _stream_dir()
    if not directory.is_dir():
        return None
    prefix = f"{name}-{_stream_digest(name)}-"
    best: Optional[Tuple[int, Path]] = None
    for path in directory.glob(f"{prefix}*{BUNDLE_SUFFIX}"):
        cached_len = _bundle_length(path, prefix)
        if (cached_len is not None and cached_len >= length
                and (best is None or cached_len < best[0])):
            best = (cached_len, path)
    if best is None:
        return None
    cached_len, path = best
    try:
        with open(path, "rb") as handle:
            program, packed = pickle.load(handle)
        if not isinstance(program, Program):
            raise ValueError("not a (Program, PackedStream) bundle")
        result = decode_stream(program, packed)
    except Exception:
        _quarantine_stream(path)
        return None
    suite.seed_program(name, program)
    suite.seed_stream(name, cached_len, result)
    return cached_len


def _quarantine_stream(path: Path) -> None:
    """Move a corrupt stream bundle aside and count it.

    Mirrors ``ResultCache``'s quarantine policy: the broken file stops
    shadowing the (re-emulated and re-stored) good entry, but stays on
    disk as ``*.corrupt`` for inspection.  The quarantined name no
    longer matches the loader's glob, so it is never re-read.
    """
    quarantined = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, quarantined)
    except OSError:  # pragma: no cover - concurrent quarantine/unlink
        pass
    PREP_STATS.add("prep.stream_corrupt")


def _store_stream_to_disk(name: str) -> None:
    """Persist the decoded program plus the suite's longest in-process
    stream for *name*, dropping now-redundant shorter entries and the
    stream's bundles in the superseded ``.pkl`` format.
    Best-effort: I/O errors never fail the simulation."""
    entry = suite.peek_stream(name)
    program = suite.cached_program(name)
    if entry is None or program is None:
        return
    requested, result = entry
    directory = _stream_dir()
    prefix = f"{name}-{_stream_digest(name)}-"
    path = directory / f"{prefix}{requested}{BUNDLE_SUFFIX}"
    try:
        if path.exists():
            return
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((program, encode_stream(result)), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        for stale in directory.glob(f"{prefix}*{BUNDLE_SUFFIX}"):
            cached_len = _bundle_length(stale, prefix)
            if cached_len is not None and cached_len < requested:
                stale.unlink(missing_ok=True)
        for superseded in directory.glob(f"{prefix}*.pkl"):
            superseded.unlink(missing_ok=True)
    except OSError:
        return


def _suite_oracle(name: str, length: int) -> ExecutionResult:
    """Suite stream through all three layers: process, disk, emulate.

    The disk bundle is only loaded while the program is not yet
    generated in-process (fresh worker processes — the case the disk
    layer exists for); once a program is live, re-emulating against it
    is cheap and keeps stream/program instruction identity consistent.
    """
    if suite.cached_stream_length(name) >= length:
        return suite.oracle_stream(name, length)
    if (_disk_enabled() and suite.cached_program(name) is None
            and _load_stream_from_disk(name, length) is not None):
        return suite.oracle_stream(name, length)
    result = suite.oracle_stream(name, length)  # emulates and caches
    if _disk_enabled():
        _store_stream_to_disk(name)
    return result


def _program_oracle(program: Program, length: int) -> ExecutionResult:
    """Ad-hoc program stream, memoized by program identity so repeated
    ``run_simulation(config, program)`` calls stop re-emulating."""
    key = id(program)
    entry = _adhoc_streams.get(key)
    if entry is None or entry[0] is not program or entry[1] < length:
        result = Machine(program).run(length)
        entry = (program, length, result)
        _adhoc_streams[key] = entry
    cached = entry[2]
    if len(cached.stream) <= length:
        return cached
    slice_key = (key, length)
    sliced = _adhoc_slices.get(slice_key)
    if sliced is None:
        sliced = ExecutionResult(cached.stream[:length], cached.outputs,
                                 cached.halted)
        _adhoc_slices[slice_key] = sliced
    return sliced


def get_oracle(benchmark: Union[str, Program],
               length: int) -> Tuple[Program, ExecutionResult, StreamKey]:
    """Resolve *benchmark* to ``(program, oracle stream, stream key)``.

    The stream key identifies the stream for the warm-snapshot cache:
    suite streams by (name, stream length), ad-hoc programs by object
    identity (the prep caches pin the program, keeping ids stable).
    """
    if isinstance(benchmark, str):
        # Stream first: a disk hit seeds the program cache with the
        # bundled program, keeping instruction identity consistent.
        result = _suite_oracle(benchmark, length)
        program = suite.get_benchmark(benchmark)
        key: StreamKey = ("bench", benchmark, len(result.stream))
    else:
        program = benchmark
        result = _program_oracle(program, length)
        key = ("program", id(program), len(result.stream))
    return program, result, key


class _WarmSnapshot:
    """Donor structures trained on one (stream, warm config)."""

    __slots__ = ("bimodal", "trace_predictor", "liveout_predictor",
                 "memory", "trace_cache", "pin")

    def __init__(self, config: ProcessorConfig, pin: object):
        stats = StatsCollector()
        self.bimodal = BimodalPredictor(stats=stats)
        self.trace_predictor = TracePredictor(config.trace_predictor, stats)
        self.liveout_predictor = LiveOutPredictor(config.liveout_predictor,
                                                  stats)
        self.memory = MemoryHierarchy(config.memory, stats)
        self.trace_cache: Optional[TraceCache] = (
            TraceCache(config.frontend.trace_cache, stats)
            if config.frontend.fetch_kind == "tc" else None)
        # Keeps ad-hoc programs alive so identity-based keys stay valid.
        self.pin = pin


class _Donor:
    """Duck-typed stand-in for a Processor, warmed instead of one."""

    def __init__(self, config: ProcessorConfig, snapshot: _WarmSnapshot):
        self.config = config
        self.stats = snapshot.bimodal.stats
        self.bimodal = snapshot.bimodal
        self.trace_predictor = snapshot.trace_predictor
        self.liveout_predictor = snapshot.liveout_predictor
        self.memory = snapshot.memory
        self.trace_cache = snapshot.trace_cache


def _warm_digest(config: ProcessorConfig) -> str:
    """Digest of every config field that influences warmed state."""
    fe = config.frontend
    parts = (config.fragment, config.trace_predictor,
             config.liveout_predictor, config.memory,
             fe.trace_cache if fe.fetch_kind == "tc" else None,
             fe.fetch_kind == "tc")
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def snapshot_key(key: StreamKey, config: ProcessorConfig) -> SnapshotKey:
    """The warm-snapshot cache key of *config* on stream *key*."""
    return (key, _warm_digest(config))


def stream_fingerprint(key: StreamKey, program: Program) -> str:
    """Stable *cross-process* identity for an oracle stream.

    The in-process :data:`StreamKey` keys ad-hoc programs by object id,
    which is meaningless to another process; durable artifacts (the
    checkpoint store, see :mod:`repro.checkpoint`) need content identity
    instead.  Suite benchmarks reuse the workload-spec digest that keys
    the on-disk stream cache; ad-hoc programs hash their full text
    segment (programs are static and small, and the digest is computed
    once per run, not per instruction).
    """
    kind, ident, length = key
    if kind == "bench":
        return f"bench-{ident}-{_stream_digest(str(ident))}-{length}"
    text = "|".join(repr(inst) for inst in program.instructions)
    digest = hashlib.sha256(
        f"{program.name}|{text}".encode()).hexdigest()[:12]
    return f"program-{digest}-{length}"


def warm_from_snapshot(processor: "Processor", oracle,
                       key: StreamKey, pin: object = None,
                       snapshots: Optional[Dict[SnapshotKey,
                                                "_WarmSnapshot"]] = None
                       ) -> None:
    """Warm *processor* by cloning a cached trained snapshot.

    Equivalent to ``warm_processor(processor, oracle)`` — training is
    deterministic, so adopting the donor's end state is bit-identical to
    training in place — but the training cost is paid once per
    (stream, warm config) instead of once per run.  *snapshots*, a
    co-sim group's mapping from :func:`warm_group_snapshots`, is
    consulted first; otherwise the process-wide cache serves (or a
    group of one trains) the snapshot.
    """
    cache_key = snapshot_key(key, processor.config)
    snapshot = snapshots.get(cache_key) if snapshots is not None else None
    if snapshot is None:
        snapshot = warm_group_snapshots([processor.config], oracle, key,
                                        pin=pin)[cache_key]
    processor.adopt_warm_state(snapshot)
    # Same post-warming contract as warm_processor: clean stats, empty
    # speculative history (the snapshot's history is already empty, but
    # the explicit reset keeps the invariant obvious).
    processor.stats.reset()
    processor.trace_predictor.restore_history(())


def warm_group_snapshots(configs, oracle, key: StreamKey,
                         pin: object = None
                         ) -> Dict[SnapshotKey, _WarmSnapshot]:
    """Train the warm snapshots for every config in one stream pass.

    The co-simulation warming amortization: distinct warm digests in
    *configs* that are not yet cached are trained together via
    :func:`repro.core.warming.warm_donor_group` — one walk of *oracle*
    per shared fragment config instead of one per digest.  Training is
    bit-identical to the on-demand :func:`warm_from_snapshot` build
    (each donor observes the same update sequence), so clones of these
    snapshots are exact.

    Returns the group's ``{snapshot key: snapshot}`` mapping, already
    cached entries included.  Co-sim clones every sibling from it: a
    group with more digests than the process-wide cache holds
    (:data:`_SNAPSHOT_CAP`) would otherwise find its first snapshots
    evicted and retrain them one by one.

    Counts ``prep.snapshot_trains`` per digest built (same as serial),
    ``prep.snapshot_hits`` per digest the process-wide cache served,
    plus ``prep.snapshot_group_shared`` for every stream pass *saved*
    by sharing (digests beyond the first in each group).
    """
    from repro.core.warming import warm_donor_group

    snapshots: Dict[SnapshotKey, _WarmSnapshot] = {}
    pending: "OrderedDict[SnapshotKey, ProcessorConfig]" = OrderedDict()
    for config in configs:
        cache_key = snapshot_key(key, config)
        if cache_key in snapshots or cache_key in pending:
            continue
        cached = _snapshots.get(cache_key)
        if cached is not None:
            PREP_STATS.add("prep.snapshot_hits")
            _snapshots.move_to_end(cache_key)
            snapshots[cache_key] = cached
        else:
            pending[cache_key] = config

    # Fragment carving is config-dependent only through FragmentConfig,
    # so only digests sharing one can share a stream pass.
    by_fragment: Dict[object, list] = {}
    for cache_key, config in pending.items():
        by_fragment.setdefault(config.fragment, []).append(
            (cache_key, config))

    for group in by_fragment.values():
        built = []
        for cache_key, config in group:
            PREP_STATS.add("prep.snapshot_trains")
            snapshot = _WarmSnapshot(config, pin)
            built.append((cache_key, snapshot, _Donor(config, snapshot)))
        if len(built) > 1:
            PREP_STATS.add("prep.snapshot_group_shared", len(built) - 1)
        warm_donor_group([donor for _, _, donor in built], oracle)
        for cache_key, snapshot, _ in built:
            snapshots[cache_key] = snapshot
            _snapshots[cache_key] = snapshot
            if len(_snapshots) > _SNAPSHOT_CAP:
                _snapshots.popitem(last=False)
    return snapshots


def clear_prep_caches() -> None:
    """Drop all prep caches (ad-hoc streams, warm snapshots).  The
    suite's own caches are cleared via ``suite.clear_caches()``."""
    _adhoc_streams.clear()
    _adhoc_slices.clear()
    _snapshots.clear()
