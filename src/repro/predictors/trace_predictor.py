"""Path-based next-trace predictor (Jacobson, Rotenberg & Smith, MICRO-30).

The predictor maintains a history of recently-seen fragment/trace IDs and
hashes them into a *primary* table; a *secondary* table indexed by only the
most recent ID serves as a fallback with faster learning.  Each entry
stores the predicted next fragment key and a 2-bit hysteresis counter.

The DOLC parameters (Table 1: D=9, O=4, L=7, C=9) control how many IDs
contribute to the primary index and how many bits each contributes:
``depth`` older IDs at ``older_bits`` each, the previous ID at
``last_bits``, and the newest ID at ``current_bits``.

History is speculative: the front-end pushes each predicted/fetched
fragment key as it goes and restores a snapshot on mispredictions.
Training happens at retire time against a separate architectural history
register, so wrong-path pollution never corrupts the tables.  Each
history register is an immutable tuple of the newest ``depth + 1`` IDs,
so prediction, training and a snapshot read the register itself.

A table entry is an immutable ``(key, counter)`` tuple, replaced whenever
its key or counter changes, so a clone copies each table with one
``dict(...)`` and shares every entry with its donor
(docs/DATA_LAYOUT.md § 11).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import TracePredictorConfig
from repro.frontend.fragments import FragmentKey
from repro.stats import StatsCollector

#: Saturating-counter ceiling (2-bit hysteresis).
_COUNTER_MAX = 3

HistorySnapshot = Tuple[int, ...]

#: One predictor-table entry: the predicted next fragment key and its
#: 2-bit hysteresis counter.
TableEntry = Tuple[FragmentKey, int]


class TracePredictor:
    """Predicts the next fragment key from the fragment-ID path history."""

    def __init__(self, config: TracePredictorConfig,
                 stats: Optional[StatsCollector] = None):
        self.config = config
        self.stats = stats if stats is not None else StatsCollector()
        self._counts = self.stats.counts
        self._primary: Dict[int, TableEntry] = {}
        self._secondary: Dict[int, TableEntry] = {}
        self._primary_mask = config.primary_entries - 1
        self._secondary_mask = config.secondary_entries - 1
        # Index-hash constants, precomputed off the hot path.
        self._current_mask = (1 << config.current_bits) - 1
        self._last_mask = (1 << config.last_bits) - 1
        self._older_mask = (1 << config.older_bits) - 1
        shift_mod = max(1, config.current_bits + 4)
        self._older_shifts = tuple(
            (i * config.older_bits + 4) % shift_mod
            for i in range(config.depth))
        #: ``FragmentKey -> hash_id()`` memo: the same keys recur for the
        #: whole run and the mixing arithmetic is pure, so clones share
        #: their donor's memo.
        self._id_cache: Dict[FragmentKey, int] = {}
        #: History register length: the newest ``depth + 1`` IDs.
        self._history_len = config.depth + 1
        #: Speculative history used for prediction (front-end state).
        self._history: HistorySnapshot = ()
        #: Architectural history used for training (retire state).
        self._retire_history: HistorySnapshot = ()

    # -- index hashing -----------------------------------------------------

    def _index(self, history: HistorySnapshot) -> int:
        """Fold a history of fragment IDs into a primary-table index."""
        value = 0
        if history:
            value ^= history[-1] & self._current_mask
        if len(history) >= 2:
            value ^= (history[-2] & self._last_mask) << 2
        older = history[:-2][-self.config.depth:]
        older_mask = self._older_mask
        shifts = self._older_shifts
        for i, older_id in enumerate(older):
            value ^= (older_id & older_mask) << shifts[i]
        return value & self._primary_mask

    def _secondary_index(self, history: HistorySnapshot) -> int:
        last = history[-1] if history else 0
        return (last ^ (last >> 16)) & self._secondary_mask

    # -- speculative history (prediction path) -----------------------------

    def snapshot_history(self) -> HistorySnapshot:
        """Capture speculative history for later recovery."""
        return self._history

    def restore_history(self, snapshot: HistorySnapshot) -> None:
        """Roll speculative history back after a squash."""
        self._history = tuple(snapshot)[-self._history_len:]

    def _hash_id(self, key: FragmentKey) -> int:
        """Memoised ``key.hash_id()`` (pure, and keys recur all run)."""
        cached = self._id_cache.get(key)
        if cached is None:
            if len(self._id_cache) >= 131072:
                self._id_cache.clear()
            cached = self._id_cache[key] = key.hash_id()
        return cached

    def _advance(self, history: HistorySnapshot,
                 key: FragmentKey) -> HistorySnapshot:
        """*history* with *key*'s ID appended, oldest dropped when full."""
        if len(history) >= self._history_len:
            history = history[1:]
        return history + (self._hash_id(key),)

    def push_history(self, key: FragmentKey) -> None:
        """Record a fetched fragment in speculative history."""
        self._history = self._advance(self._history, key)

    def predict(self) -> Optional[FragmentKey]:
        """Predict the next fragment key, or None on a cold miss."""
        history = self._history
        entry = self._primary.get(self._index(history))
        if entry is not None:
            self._counts["tracepred.predictions_primary"] += 1
            return entry[0]
        entry = self._secondary.get(self._secondary_index(history))
        if entry is not None:
            self._counts["tracepred.predictions_secondary"] += 1
            return entry[0]
        self._counts["tracepred.cold_misses"] += 1
        return None

    # -- training (retire path) ------------------------------------------

    def train(self, actual: FragmentKey) -> None:
        """Tell the predictor the architecturally-next fragment was
        *actual*; updates tables against retire history, then advances it.
        """
        history = self._retire_history
        self._train_table(self._primary, self._index(history), actual)
        self._train_table(self._secondary, self._secondary_index(history),
                          actual)
        self._retire_history = self._advance(history, actual)

    def _train_table(self, table: Dict[int, TableEntry], index: int,
                     actual: FragmentKey) -> None:
        entry = table.get(index)
        if entry is None:
            table[index] = (actual, 1)
            return
        key, counter = entry
        if key == actual:
            if counter < _COUNTER_MAX:
                table[index] = (key, counter + 1)
        elif counter:
            table[index] = (key, counter - 1)
            self.stats.add("tracepred.hysteresis_holds")
        else:
            table[index] = (actual, 1)

    def adopt_state(self, donor: "TracePredictor") -> None:
        """Clone *donor*'s trained tables and histories into this
        predictor.

        Entries and histories are immutable tuples, so each table is
        one ``dict`` copy that shares them, and the ID memo, a pure
        function of the key, is shared outright.  Requires identical
        geometry.
        """
        if donor.config != self.config:
            raise ValueError("trace-predictor config mismatch in adopt_state")
        self._primary = dict(donor._primary)
        self._secondary = dict(donor._secondary)
        self._id_cache = donor._id_cache
        self._history = donor._history
        self._retire_history = donor._retire_history

    def __getstate__(self) -> dict:
        """Pickled state without the ID memo: it is pure, so an
        unpickled predictor (a restored checkpoint) refills it and a
        snapshot file does not carry the live run's memo."""
        state = dict(self.__dict__)
        state["_id_cache"] = {}
        return state

    def state_view(self) -> Tuple[Dict[int, TableEntry],
                                  Dict[int, TableEntry]]:
        """The primary and secondary tables, each ``{index: (key,
        counter)}`` in index order: the tables' whole state, read-only
        (copies)."""
        return (dict(sorted(self._primary.items())),
                dict(sorted(self._secondary.items())))

    # -- introspection ---------------------------------------------------

    @property
    def primary_occupancy(self) -> int:
        """Populated primary-table entries."""
        return len(self._primary)

    @property
    def secondary_occupancy(self) -> int:
        """Populated secondary-table entries."""
        return len(self._secondary)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (f"TracePredictor(primary={cfg.primary_entries}, "
                f"secondary={cfg.secondary_entries}, "
                f"DOLC={cfg.depth}-{cfg.older_bits}-"
                f"{cfg.last_bits}-{cfg.current_bits})")
