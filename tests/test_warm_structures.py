"""The warm structures that co-sim siblings share with their donor.

Caches, the trace cache and the live-out predictor hold one immutable
tuple per set, and the trace predictor one immutable ``(key, counter)``
tuple per table entry, so a clone shares every set and entry with the
donor it was adopted from (docs/DATA_LAYOUT.md § 11).  Three concerns:

* **Reference models** — each structure matches its former
  implementation, kept here (an ``OrderedDict`` per set, a mutable
  ``_Entry`` per predictor entry, a bounded ``deque`` per trace-predictor
  history register), in results, counters, LRU order and histories over
  random operation sequences.  The cache's own reference test is
  ``tests/test_memory.py::test_lru_matches_reference_model``.
* **Isolation** — running a sibling leaves its donor's state unchanged.
* **Bytes per sibling** — a sibling's warm state, construction plus
  adoption, stays under 512 KB for every paper config.
"""

import tracemalloc
from collections import Counter, OrderedDict, deque

from hypothesis import given, settings, strategies as st

from repro import PAPER_CONFIGS, frontend_config
from repro.config import (LiveOutPredictorConfig, TraceCacheConfig,
                          TracePredictorConfig)
from repro.core.processor import Processor
from repro.frontend import trace_cache as trace_cache_module
from repro.frontend.fragments import FragmentKey
from repro.frontend.trace_cache import TraceCache
from repro.memory import cache as cache_module
from repro.perf.soa import SharedStream
from repro.predictors import bimodal as bimodal_module
from repro.predictors import liveout as liveout_module
from repro.predictors import trace_predictor as trace_predictor_module
from repro.predictors.liveout import LiveOutInfo, LiveOutPredictor
from repro.predictors.trace_predictor import TracePredictor
from repro.sampling import clear_prep_caches, prep

#: A small key space: few sets, so random sequences hit, alias and evict.
KEYS = [FragmentKey(pc, dirs) for pc in (0x1000, 0x1004, 0x1010, 0x1024)
        for dirs in ((), (True,), (False, True))]
key_indices = st.integers(min_value=0, max_value=len(KEYS) - 1)


class ReferenceTraceCache:
    """The trace cache as one ``OrderedDict`` per set."""

    def __init__(self, config):
        self.config = config
        self.num_sets = max(1, config.num_sets)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.counts = Counter()

    def lookup(self, key):
        cache_set = self.sets[(key.start_pc >> 2) % self.num_sets]
        if key in cache_set:
            cache_set.move_to_end(key)
            self.counts["tc.hits"] += 1
            return True
        self.counts["tc.misses"] += 1
        return False

    def insert(self, key):
        cache_set = self.sets[(key.start_pc >> 2) % self.num_sets]
        if key in cache_set:
            cache_set.move_to_end(key)
            return
        if len(cache_set) >= self.config.assoc:
            cache_set.popitem(last=False)
            self.counts["tc.evictions"] += 1
        cache_set[key] = None
        self.counts["tc.fills"] += 1

    def state_view(self):
        return tuple(tuple(s) for s in self.sets)


class ReferenceLiveOutPredictor:
    """The live-out table as one ``OrderedDict`` {tag: info} per set."""

    def __init__(self, config):
        self.config = config
        self.num_sets = max(1, config.entries // config.assoc)
        self.tag_mask = (1 << config.tag_bits) - 1
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.counts = Counter()

    def _locate(self, key):
        hashed = key.hash_id()
        hashed ^= hashed >> 17
        return (hashed % self.num_sets,
                (hashed // self.num_sets) & self.tag_mask)

    def predict(self, key):
        index, tag = self._locate(key)
        cache_set = self.sets[index]
        info = cache_set.get(tag)
        if info is None:
            self.counts["liveout.table_misses"] += 1
            return None
        cache_set.move_to_end(tag)
        self.counts["liveout.table_hits"] += 1
        return info

    def train(self, key, info):
        index, tag = self._locate(key)
        cache_set = self.sets[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
        elif len(cache_set) >= self.config.assoc:
            cache_set.popitem(last=False)
            self.counts["liveout.evictions"] += 1
        cache_set[tag] = info

    def state_view(self):
        return tuple(tuple(s.items()) for s in self.sets)


class _Entry:
    """One mutable predictor-table entry."""

    __slots__ = ("key", "counter")

    def __init__(self, key):
        self.key = key
        self.counter = 1


class ReferenceTracePredictor(TracePredictor):
    """The trace predictor with one mutable ``_Entry`` per table entry
    and a bounded ``deque`` per history register (index hashing is the
    real predictor's)."""

    def __init__(self, config):
        super().__init__(config)
        self._history = deque(maxlen=config.depth + 1)
        self._retire_history = deque(maxlen=config.depth + 1)

    def snapshot_history(self):
        return tuple(self._history)

    def restore_history(self, snapshot):
        self._history = deque(snapshot, maxlen=self.config.depth + 1)

    def push_history(self, key):
        self._history.append(self._hash_id(key))

    def train(self, actual):
        history = tuple(self._retire_history)
        self._train_table(self._primary, self._index(history), actual)
        self._train_table(self._secondary, self._secondary_index(history),
                          actual)
        self._retire_history.append(self._hash_id(actual))

    def predict(self):
        history = tuple(self._history)
        entry = self._primary.get(self._index(history))
        if entry is not None:
            self.stats.add("tracepred.predictions_primary")
            return entry.key
        entry = self._secondary.get(self._secondary_index(history))
        if entry is not None:
            self.stats.add("tracepred.predictions_secondary")
            return entry.key
        self.stats.add("tracepred.cold_misses")
        return None

    def _train_table(self, table, index, actual):
        entry = table.get(index)
        if entry is None:
            table[index] = _Entry(actual)
            return
        if entry.key == actual:
            if entry.counter < 3:
                entry.counter += 1
            return
        entry.counter -= 1
        if entry.counter < 0:
            table[index] = _Entry(actual)
        else:
            self.stats.add("tracepred.hysteresis_holds")

    def state_view(self):
        return tuple({index: (entry.key, entry.counter)
                      for index, entry in sorted(table.items())}
                     for table in (self._primary, self._secondary))


def counts(stats):
    return {name: value for name, value in stats.as_dict().items() if value}


@given(st.sampled_from([1, 2, 4]),
       st.lists(st.tuples(st.booleans(), key_indices), max_size=150))
@settings(max_examples=60, deadline=None)
def test_trace_cache_matches_reference_model(assoc, ops):
    """Hits, fills, evictions and each set's LRU order match the
    ``OrderedDict`` trace cache after every operation."""
    config = TraceCacheConfig(size_bytes=64 * assoc * 2, assoc=assoc)
    cache, reference = TraceCache(config), ReferenceTraceCache(config)
    for is_lookup, index in ops:
        key = KEYS[index]
        if is_lookup:
            assert cache.lookup(key) == reference.lookup(key)
        else:
            cache.insert(key)
            reference.insert(key)
        assert cache.state_view() == reference.state_view()
    assert counts(cache.stats) == dict(reference.counts)


@given(st.sampled_from([(8, 2, 1), (8, 4, 2), (4, 1, 1)]),
       st.lists(st.tuples(st.booleans(), key_indices,
                          st.integers(min_value=0, max_value=3)),
                max_size=150))
@settings(max_examples=60, deadline=None)
def test_liveout_predictor_matches_reference_model(geometry, ops):
    """Predicted infos, hits, misses, evictions and each set's LRU order
    match the ``OrderedDict`` live-out table after every operation."""
    entries, assoc, tag_bits = geometry
    config = LiveOutPredictorConfig(entries, assoc, tag_bits)
    predictor = LiveOutPredictor(config)
    reference = ReferenceLiveOutPredictor(config)
    for is_predict, index, regs in ops:
        key = KEYS[index]
        if is_predict:
            assert predictor.predict(key) is reference.predict(key)
        else:
            info = LiveOutInfo(regs, regs, index)
            predictor.train(key, info)
            reference.train(key, info)
        assert predictor.state_view() == reference.state_view()
    assert counts(predictor.stats) == dict(reference.counts)


#: The Table 1 geometry (DOLC 9-4-7-9) and a small one whose older IDs
#: wrap their shifts.
PREDICTOR_CONFIGS = (TracePredictorConfig(),
                     TracePredictorConfig(primary_entries=16,
                                          secondary_entries=4, depth=2,
                                          older_bits=2, last_bits=2,
                                          current_bits=3))


@given(st.sampled_from(PREDICTOR_CONFIGS),
       st.lists(st.tuples(st.sampled_from(["train", "predict", "push",
                                           "snapshot", "restore"]),
                          key_indices), max_size=200))
@settings(max_examples=60, deadline=None)
def test_trace_predictor_matches_reference_model(config, ops):
    """Predictions, hysteresis holds, every table entry's key and
    counter, and both history registers (0 to ``depth + 1`` IDs, also
    after ``restore_history``) match the reference predictor after
    every operation."""
    predictor, reference = (TracePredictor(config),
                            ReferenceTracePredictor(config))
    snapshots = [((), ())]
    for op, index in ops:
        key = KEYS[index]
        if op == "train":
            predictor.train(key)
            reference.train(key)
        elif op == "predict":
            assert predictor.predict() == reference.predict()
        elif op == "push":
            predictor.push_history(key)
            reference.push_history(key)
        elif op == "snapshot":
            snapshots.append((predictor.snapshot_history(),
                              reference.snapshot_history()))
        else:
            mine, theirs = snapshots[index % len(snapshots)]
            predictor.restore_history(mine)
            reference.restore_history(theirs)
        assert predictor.state_view() == reference.state_view()
        assert predictor.snapshot_history() == reference.snapshot_history()
        assert predictor._retire_history == tuple(reference._retire_history)
    assert predictor.stats.as_dict() == reference.stats.as_dict()


def test_history_registers_keep_the_newest_ids():
    """Both registers keep the newest ``depth + 1`` IDs, as the bounded
    deques did, however many were pushed, trained or restored."""
    config = PREDICTOR_CONFIGS[1]
    predictor, reference = (TracePredictor(config),
                            ReferenceTracePredictor(config))
    for key in KEYS:
        for model in (predictor, reference):
            model.push_history(key)
            model.train(key)
        assert predictor.snapshot_history() == reference.snapshot_history()
        assert predictor._retire_history == tuple(reference._retire_history)
    assert len(predictor.snapshot_history()) == config.depth + 1
    longer = tuple(range(config.depth + 4))
    predictor.restore_history(longer)
    reference.restore_history(longer)
    assert (predictor.snapshot_history() == reference.snapshot_history()
            == longer[-(config.depth + 1):])


def views(holder):
    """The public view of every shared warm structure of *holder*, a
    warm snapshot or a processor."""
    memory = getattr(holder, "memory", holder)
    structures = {"trace_predictor": holder.trace_predictor,
                  "liveout_predictor": holder.liveout_predictor,
                  "l1i": memory.l1i, "l1d": memory.l1d, "l2": memory.l2,
                  "trace_cache": holder.trace_cache}
    return {role: structure.state_view()
            for role, structure in structures.items()
            if structure is not None}


def test_running_a_sibling_leaves_its_donor_unchanged():
    """A sibling writes only its own lists and dicts: after a full run
    of each clone the donors' views are as trained, while each clone's
    views have moved on."""
    clear_prep_caches()
    program, execution, key = prep.get_oracle("gzip", 4000)
    oracle = execution.stream
    configs = [frontend_config(name) for name in ("tc", "pr-2x8w")]
    snapshots = prep.warm_group_snapshots(configs, oracle, key)
    trained = {cache_key: views(snapshot)
               for cache_key, snapshot in snapshots.items()}
    for config in configs:
        sibling = Processor(config, program, oracle,
                            watchdog=None, invariants=None)
        prep.warm_from_snapshot(sibling, oracle, key, snapshots=snapshots)
        sibling.run()
        assert views(sibling) != trained[prep.snapshot_key(key, config)]
    assert {cache_key: views(snapshot)
            for cache_key, snapshot in snapshots.items()} == trained
    clear_prep_caches()


#: The modules whose allocations make up a processor's warm state.
WARM_MODULES = (cache_module, trace_cache_module, liveout_module,
                trace_predictor_module, bimodal_module)


def test_sibling_warm_state_fits_in_512_kb():
    """Building a processor and adopting its warm snapshot allocates
    under 512 KB of warm-structure state for every paper config on
    crafty at 120 000 instructions: a list of per-set pointers per
    cache and table, one dict copy per predictor table, and no set or
    entry object (one OrderedDict per set and one object per predictor
    entry took about 2 MB)."""
    clear_prep_caches()
    program, execution, key = prep.get_oracle("crafty", 120_000)
    oracle = execution.stream
    configs = [frontend_config(name) for name in PAPER_CONFIGS]
    snapshots = prep.warm_group_snapshots(configs, oracle, key)
    SharedStream.of(oracle)  # the stream's state, built untraced
    filters = [tracemalloc.Filter(True, module.__file__)
               for module in WARM_MODULES]
    sizes = {}
    for name, config in zip(PAPER_CONFIGS, configs):
        tracemalloc.start()
        try:
            sibling = Processor(config, program, oracle, watchdog=None,
                                invariants=None)
            sibling.adopt_warm_state(
                snapshots[prep.snapshot_key(key, config)])
            traces = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        sizes[name] = sum(stat.size for stat in traces.statistics("filename"))
        del sibling
    clear_prep_caches()
    assert max(sizes.values()) < 512 * 1024, sizes
