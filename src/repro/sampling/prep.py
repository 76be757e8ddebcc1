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
* :func:`warm_from_snapshot` — functional warming via a
  *trained-predictor snapshot*: donor structures are trained once per
  (stream, structure config) — however many warm configs share one —
  and cloned into each run's processor with the structures'
  ``adopt_state`` methods.  Training is deterministic, so the clone is
  bit-identical to retraining (the test suite asserts it).
* The disk layer shares ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``
  semantics with :mod:`repro.experiments.runner`'s result cache.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
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
from repro.memory.cache import Cache
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
#: ``prep.snapshot_trains`` / ``prep.snapshot_hits`` count warm digests
#: that needed training versus ones served whole from the in-process
#: warm table, and ``prep.structure_trains`` the distinct structures
#: trained (see :func:`warm_group_snapshots`).
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

#: The warm structures a processor adopts, by attribute name (the
#: *role* half of a structure's identity; see :func:`_structure_specs`).
ROLES = ("bimodal", "trace_predictor", "liveout_predictor", "l1i", "l1d",
         "l2", "trace_cache")


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

    Each bundle holds the pickled program plus its oracle stream's
    columns (:func:`~repro.emulator.stream.encode_stream`); loading is
    the unpickle plus :func:`~repro.emulator.stream.decode_stream`'s
    check that the columns agree in length and that every PC is an
    instruction address of the bundled program, whose instruction
    objects the stream then reads, exactly as after a fresh
    generate+emulate.  Returns the requested-length of
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

    The stream key identifies the stream for the warm table:
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
    """Donor structures trained on one (stream, warm config).

    Only ever cloned from (:meth:`Processor.adopt_warm_state`), never
    trained or run, so snapshots of configs that agree on a structure's
    config hold that one trained structure between them.  Caches are
    bare (``l1i``/``l1d``/``l2``, no hierarchy); ``trace_cache`` is None
    unless the config fetches from a trace cache.
    """

    __slots__ = ROLES

    def __init__(self, structures: Dict[str, object]):
        for role in ROLES:
            setattr(self, role, structures.get(role))


class _Donor:
    """The structures one config still needs trained, for
    :func:`repro.core.warming.warm_donor_group` (None: already trained)."""

    __slots__ = ("config", "stats") + ROLES

    def __init__(self, config: ProcessorConfig, stats: StatsCollector):
        self.config = config
        self.stats = stats
        for role in ROLES:
            setattr(self, role, None)


def _structure_specs(config: ProcessorConfig) -> Dict[str, object]:
    """Role -> every config field that role's training reads.

    Warming touches each cache in an order fixed by the stream alone and
    trains the bimodal table on every conditional branch, so those are
    keyed by their own geometry; the fragment-sequence structures also
    see the fragment config's carving.  Two configs with equal specs for
    a role end training with equal structures in that role.
    """
    fragment = config.fragment
    memory = config.memory
    specs: Dict[str, object] = {
        "bimodal": None,
        "trace_predictor": (fragment, config.trace_predictor),
        "liveout_predictor": (fragment, config.liveout_predictor),
        "l1i": memory.l1i,
        "l1d": memory.l1d,
        "l2": memory.l2,
    }
    if config.frontend.fetch_kind == "tc":
        specs["trace_cache"] = (fragment, config.frontend.trace_cache)
    return specs


def _build_structure(role: str, spec, stats: StatsCollector):
    """An untrained structure for *role* with config *spec*."""
    if role == "bimodal":
        return BimodalPredictor(stats=stats)
    if role == "trace_predictor":
        return TracePredictor(spec[1], stats)
    if role == "liveout_predictor":
        return LiveOutPredictor(spec[1], stats)
    if role == "trace_cache":
        return TraceCache(spec[1], stats)
    return Cache(spec, role, stats)


class _WarmTable:
    """The most recent stream's trained warm structures.

    Keyed by ``(role, spec)`` (:func:`_structure_specs`): a structure is
    trained once per stream however many warm digests use it, and kept
    after the call, so serial runs on the same stream train only what
    they add.  A call on another stream starts a new dict, so a process
    never holds more than one stream's structures.  A dict only ever
    belongs to one stream, and a structure enters it only once trained,
    so callers on several threads at worst train a structure twice.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Drop every trained structure."""
        with self._lock:
            self.stream: Optional[StreamKey] = None
            #: Keeps an ad-hoc program alive while its id keys the table.
            self.pin: object = None
            self.structures: Dict[Tuple[str, object], object] = {}

    def for_stream(self, key: StreamKey,
                   pin: object) -> Dict[Tuple[str, object], object]:
        """The structure dict of stream *key*, a new one on a new stream."""
        with self._lock:
            if key != self.stream:
                self.structures = {}
                self.stream = key
                self.pin = pin
            return self.structures


_warm_table = _WarmTable()


def _warm_digest(config: ProcessorConfig) -> str:
    """Digest of every config field that influences warmed state."""
    fe = config.frontend
    parts = (config.fragment, config.trace_predictor,
             config.liveout_predictor, config.memory,
             fe.trace_cache if fe.fetch_kind == "tc" else None,
             fe.fetch_kind == "tc")
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def snapshot_key(key: StreamKey, config: ProcessorConfig) -> SnapshotKey:
    """The warm-snapshot key of *config* on stream *key*."""
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
    training in place — but each structure is trained once per
    (stream, structure config) instead of once per run.  *snapshots*, a
    co-sim group's mapping from :func:`warm_group_snapshots`, is
    consulted first; otherwise the process-wide warm table serves the
    snapshot, training only the structures it lacks.
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
    """The warm snapshots of every config in *configs* on one stream.

    Each snapshot references its structures in the warm table
    (:class:`_WarmTable`); structures the table lacks are trained
    together via :func:`repro.core.warming.warm_donor_group` — one walk
    of *oracle* per fragment config, each distinct structure trained
    once.  Every structure sees the update sequence a solo
    :func:`~repro.core.warming.warm_processor` pass would apply, so
    clones of these snapshots are exact.

    Returns the group's ``{snapshot key: snapshot}`` mapping; co-sim
    clones every sibling from it.

    Counts ``prep.snapshot_trains`` per digest that needed training,
    ``prep.snapshot_hits`` per digest the table served whole,
    ``prep.structure_trains`` per distinct structure trained, and
    ``prep.snapshot_group_shared`` for every stream walk *saved* by
    sharing (digests beyond the first in each walk).
    """
    from repro.core.warming import warm_donor_group

    table = _warm_table.for_stream(key, pin)
    specs: Dict[SnapshotKey, Dict[str, object]] = {}
    by_fragment: Dict[object, list] = {}
    for config in configs:
        cache_key = snapshot_key(key, config)
        if cache_key in specs:
            continue
        specs[cache_key] = config_specs = _structure_specs(config)
        if all((role, spec) in table
               for role, spec in config_specs.items()):
            PREP_STATS.add("prep.snapshot_hits")
            continue
        PREP_STATS.add("prep.snapshot_trains")
        by_fragment.setdefault(config.fragment, []).append(
            (config, config_specs))

    # Carving depends on the config only through FragmentConfig, so one
    # walk trains the structures of every config sharing one; the
    # stream-only structures go to the first walk that needs them.
    for group in by_fragment.values():
        stats = StatsCollector()
        fresh: Dict[Tuple[str, object], object] = {}
        donors = []
        for config, config_specs in group:
            donor = _Donor(config, stats)
            for role, spec in config_specs.items():
                if (role, spec) in table:
                    continue
                structure = fresh.get((role, spec))
                if structure is None:
                    structure = fresh[(role, spec)] = _build_structure(
                        role, spec, stats)
                setattr(donor, role, structure)
            donors.append(donor)
        if len(donors) > 1:
            PREP_STATS.add("prep.snapshot_group_shared", len(donors) - 1)
        if fresh:
            PREP_STATS.add("prep.structure_trains", len(fresh))
            warm_donor_group(donors, oracle)
            table.update(fresh)

    return {cache_key: _WarmSnapshot({role: table[(role, spec)]
                                      for role, spec in config_specs.items()})
            for cache_key, config_specs in specs.items()}


def forget_benchmark(name: str) -> None:
    """Drop suite benchmark *name*'s in-process stream state: its
    program, streams and slices (:func:`repro.workloads.suite.forget`),
    with the state runs keep on each stream, and the warm table's
    structures when they were trained on it.  A
    later request rebuilds them, from the on-disk bundle when there is
    one."""
    suite.forget(name)
    held = _warm_table.stream
    if held is not None and held[:2] == ("bench", name):
        _warm_table.clear()


def clear_prep_caches() -> None:
    """Drop all prep caches: every in-process oracle stream (ad-hoc and
    suite; the state runs keep on a stream dies with it) and the
    trained warm structures.  The suite's generated programs stay; they
    are dropped with ``suite.clear_caches()``."""
    _adhoc_streams.clear()
    _adhoc_slices.clear()
    suite.clear_streams()
    _warm_table.clear()
