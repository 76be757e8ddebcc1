"""Functional warming of predictors and caches.

The paper simulates one *billion* instructions per benchmark, so its
measurements reflect steady state: predictors trained, caches resident.
A pure-Python timing model cannot afford that, so — following standard
sampled-simulation methodology (functional warming, as in SMARTS) — the
large stateful structures are warmed architecturally before the timed
run: the trace/fragment predictor, bimodal fallback and live-out predictor
are trained on the benchmark's retired fragment sequence, and the caches
and trace cache are touched in reference order.  Warming is purely
functional (no timing) and therefore cheap.

Warming uses the same dynamic stream the timed run will execute, which is
the closest available approximation of "the program has been running for
a long time already" for looping workloads like this suite's.

:class:`WarmingState` is the resumable core: it consumes the stream in
arbitrary chunks, which is what lets the interval-sampling engine
(:mod:`repro.sampling`) keep structures functionally warm across
fast-forwarded gaps without replaying the whole stream.  Chunking is
invisible to the warmed structures — each one (bimodal counters, trace
and live-out predictor tables, trace cache, L1/L2 LRU state) observes
exactly the same update sequence regardless of chunk boundaries, so the
end state is bit-identical to a single whole-stream pass (the test suite
asserts this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.emulator.stream import DynamicInstruction
from repro.frontend.fragments import (
    DynamicFragment,
    FragmentKey,
    TerminationReason,
    should_terminate,
)
from repro.predictors.liveout import compute_liveouts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.processor import Processor


class WarmingState:
    """Resumable functional warming over stream chunks.

    Feed the dynamic stream through :meth:`feed` in any number of chunks
    (one call with the whole stream is the classic pre-run warming), then
    :meth:`finish` exactly once before the first timed cycle.  The
    sampling engine instead interleaves :meth:`feed` calls with detailed
    measurement windows and never calls :meth:`finish` — it drops
    carve-in-progress state at window boundaries via
    :meth:`discard_partial` because the detailed window's commit-side
    carver takes over training from there.

    A fragment that spans a chunk boundary is carried, not truncated:
    only :meth:`flush` emits the trailing ``STREAM_END`` fragment.
    """

    def __init__(self, processor: "Processor"):
        self.processor = processor
        self._config = processor.config.fragment
        # Carve-in-progress state (records/directions of the pending,
        # not-yet-terminated fragment) — carried across feed() calls.
        self._records: List[DynamicInstruction] = []
        self._directions: List[bool] = []
        # Last I-line touched, carried so a fragment of straight-line
        # code split across chunks still fills each line exactly once.
        self._seen_line = -1
        self._finished = False

    # -- incremental warming ------------------------------------------------

    def feed(self, chunk: Iterable[DynamicInstruction]) -> None:
        """Warm all structures with the next *chunk* of the stream.

        Records must arrive in stream order across calls; NOPs are kept
        for cache touches and ignored everywhere else, exactly as in the
        whole-stream pass.
        """
        if self._finished:
            raise RuntimeError("WarmingState.feed() after finish()")
        processor = self.processor
        bimodal = processor.bimodal
        memory = processor.memory
        records = self._records
        directions = self._directions
        seen_line = self._seen_line
        config = self._config

        for record in chunk:
            # Caches: touch lines in reference order so LRU is realistic.
            line = record.pc >> 6
            if line != seen_line:
                memory.l2.fill(record.pc)
                memory.l1i.fill(record.pc)
                seen_line = line
            if record.ea is not None:
                memory.l2.fill(record.ea)
                memory.l1d.fill(record.ea)

            inst = record.inst
            if inst.is_nop:
                continue

            # Branch outcome predictor.
            if inst.is_cond_branch:
                bimodal.train(record.pc, record.taken)
                directions.append(record.taken)

            # Fragment carving (same termination rules as carve_stream).
            records.append(record)
            reason = should_terminate(inst, len(records), config)
            if reason is not None:
                key = FragmentKey(records[0].pc, tuple(directions))
                next_pc = (None if reason in (TerminationReason.INDIRECT,
                                              TerminationReason.HALT)
                           else record.next_pc)
                self._train(DynamicFragment(key, records, reason, next_pc))
                records = self._records = []
                directions = self._directions = []

        self._seen_line = seen_line

    def feed_caches(self, touches: Iterable[Tuple[int, bool]]) -> None:
        """Replay a gap's cache-touch list, training nothing.

        The cheap gap-maintenance mode for sampled runs that pre-warmed
        every predictor on the whole stream: the predictors are already
        at steady state, so re-training them through the gaps buys no
        accuracy, but cache LRU recency still has to track the skipped
        references or measured windows would see phantom-cold lines.
        *touches* comes from :func:`cache_touches`, which depends only on
        the stream, so a co-sim group computes one list per gap and
        replays it into every sibling.  Each touch fills L2 first, then
        its L1 side — the update sequence :meth:`feed` applies.
        """
        if self._finished:
            raise RuntimeError("WarmingState.feed_caches() after finish()")
        memory = self.processor.memory
        l2_fill = memory.l2.fill
        l1i_fill = memory.l1i.fill
        l1d_fill = memory.l1d.fill
        for addr, is_inst in touches:
            l2_fill(addr)
            if is_inst:
                l1i_fill(addr)
            else:
                l1d_fill(addr)

    def _train(self, fragment: DynamicFragment) -> None:
        """Train the fragment-sequence predictors on a carved fragment,
        exactly as the commit-side carver would."""
        processor = self.processor
        processor.trace_predictor.train(fragment.key)
        processor.liveout_predictor.train(
            fragment.key,
            compute_liveouts([r.inst for r in fragment.records]))
        if processor.trace_cache is not None:
            processor.trace_cache.insert(fragment.key)
        # Pure-cache prewarm: walk caches, decode cache, SoA metadata and
        # chunk tables for the key the predictors just trained on — these
        # are keyed pure functions, so prebuilding them is as invisible
        # to the timed run as the predictor training above (repeat keys
        # cost only a memo probe).
        processor.prewarm_fragment_key(fragment.key)

    def flush(self) -> None:
        """Train the trailing truncated fragment, if one is pending.

        Matches :func:`repro.frontend.fragments.carve_stream`, which
        emits the final partial fragment with ``STREAM_END``.
        """
        if self._records:
            key = FragmentKey(self._records[0].pc, tuple(self._directions))
            self._train(DynamicFragment(key, self._records,
                                        TerminationReason.STREAM_END,
                                        self._records[-1].next_pc))
            self._records = []
            self._directions = []

    def discard_partial(self) -> int:
        """Drop the carve-in-progress fragment without training it.

        Used at gap → detailed-window boundaries in sampled simulation:
        the window's commit carver re-carves from the window start, so
        training the artificial boundary fragment here would either
        double-train or train a fragment the full-detail run never sees.
        Returns the number of records dropped.
        """
        dropped = len(self._records)
        self._records = []
        self._directions = []
        return dropped

    def finish(self) -> None:
        """Complete pre-run warming: flush the trailing fragment, clear
        warming side effects on stats, and reset speculative history.

        Call exactly once, before the first timed cycle.  The retire-side
        history keeps its trained end state; the speculative history
        starts empty (the first few fragments use the secondary table).
        """
        self.flush()
        self._finished = True
        # Warming trained the predictors but also counted hits/misses and
        # fills into the shared stats collector; reset it so the timed
        # run starts clean, with no phantom zero-valued entries.
        self.processor.stats.reset()
        self.processor.trace_predictor.restore_history(())


def cache_touches(records: Iterable[DynamicInstruction],
                  seen_line: int = -1) -> List[Tuple[int, bool]]:
    """The cache touches :meth:`WarmingState.feed` makes for *records*.

    ``(address, is_instruction)`` in stream order: an instruction-side
    touch whenever the I-line changes, a data-side touch per memory
    record.  *seen_line* is the I-line carried in from the previous
    chunk (the last record's ``pc >> 6``; -1 at the start of a run).
    """
    touches: List[Tuple[int, bool]] = []
    append = touches.append
    for record in records:
        line = record.pc >> 6
        if line != seen_line:
            append((record.pc, True))
            seen_line = line
        if record.ea is not None:
            append((record.ea, False))
    return touches


def warm_donor_group(donors: Sequence,
                     stream: Sequence[DynamicInstruction]) -> None:
    """Train every structure the *donors* hold, each once, on *stream*.

    The warm-snapshot training path (:mod:`repro.sampling.prep`): the
    cache touches, fragment carving and live-out computation depend only
    on the stream and the (shared) fragment config — never on a
    donor — so every structure a group of warm configs needs trains in
    one walk of the stream.  A donor exposes ``config``, ``stats`` and
    the structures still to train: ``bimodal``, ``trace_predictor``,
    ``liveout_predictor``, ``l1i``, ``l1d``, ``l2`` and ``trace_cache``,
    each None when that role needs no training.  A structure several
    donors hold trains once, and observes exactly the update sequence a
    solo :func:`warm_processor` pass would apply, so its end state is
    bit-identical (asserted by the parity tests).  The walk is two
    loops, each skipped when nothing needs it: the cache touches, then
    branch training and carving (no structure's updates depend on
    another's, so the two need not interleave).

    All donors must share one :class:`~repro.config.FragmentConfig`;
    callers group by it (:func:`repro.sampling.prep.warm_group_snapshots`).
    Like :meth:`WarmingState.finish`, this resets the donors' stats and
    every trained predictor's speculative history afterwards.
    """
    if not donors:
        return
    config = donors[0].config.fragment
    for donor in donors[1:]:
        if donor.config.fragment != config:
            raise ValueError(
                "warm_donor_group requires one shared fragment config")

    def distinct(role: str) -> list:
        found = {}
        for donor in donors:
            structure = getattr(donor, role)
            if structure is not None:
                found[id(structure)] = structure
        return list(found.values())

    bimodal_trains = [b.train for b in distinct("bimodal")]
    predictors = distinct("trace_predictor")
    liveouts = distinct("liveout_predictor")
    trace_caches = distinct("trace_cache")
    l2_fills = [cache.fill for cache in distinct("l2")]
    inst_fills = l2_fills + [cache.fill for cache in distinct("l1i")]
    data_fills = l2_fills + [cache.fill for cache in distinct("l1d")]
    carve = bool(predictors or liveouts or trace_caches)

    def train(key: FragmentKey, records: List[DynamicInstruction]) -> None:
        for predictor in predictors:
            predictor.train(key)
        if liveouts:
            info = compute_liveouts([r.inst for r in records])
            for liveout in liveouts:
                liveout.train(key, info)
        for trace_cache in trace_caches:
            trace_cache.insert(key)

    if inst_fills or data_fills:
        seen_line = -1
        for record in stream:
            line = record.pc >> 6
            if line != seen_line:
                for fill in inst_fills:
                    fill(record.pc)
                seen_line = line
            if data_fills and record.ea is not None:
                for fill in data_fills:
                    fill(record.ea)

    if bimodal_trains or carve:
        records: List[DynamicInstruction] = []
        directions: List[bool] = []
        for record in stream:
            inst = record.inst
            if inst.is_nop:
                continue
            if inst.is_cond_branch:
                for bimodal_train in bimodal_trains:
                    bimodal_train(record.pc, record.taken)
                if carve:
                    directions.append(record.taken)
            if carve:
                records.append(record)
                if should_terminate(inst, len(records), config) is not None:
                    train(FragmentKey(records[0].pc, tuple(directions)),
                          records)
                    records = []
                    directions = []
        if records:
            train(FragmentKey(records[0].pc, tuple(directions)), records)

    for stats in {id(donor.stats): donor.stats for donor in donors}.values():
        stats.reset()
    for predictor in predictors:
        predictor.restore_history(())


def warm_processor(processor: "Processor",
                   stream: Sequence[DynamicInstruction],
                   chunk_size: Optional[int] = None) -> None:
    """Warm *processor*'s predictors and caches with *stream*.

    Must be called before the first timing cycle.  *chunk_size* feeds the
    stream through :class:`WarmingState` in slices of that many records —
    the result is bit-identical to the default whole-stream pass; the
    parameter exists for parity testing and has no behavioural effect.
    """
    state = WarmingState(processor)
    if chunk_size is None:
        state.feed(stream)
    else:
        for start in range(0, len(stream), chunk_size):
            state.feed(stream[start:start + chunk_size])
    state.finish()
