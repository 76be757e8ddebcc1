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

from repro.emulator.stream import TAKEN, ColumnStream
from repro.frontend.fragments import FragmentKey, should_terminate
from repro.isa.instructions import Instruction
from repro.predictors.liveout import memo_liveouts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.processor import Processor


class WarmingState:
    """Resumable functional warming over stream chunks.

    Feed the dynamic stream through :meth:`feed` in any number of
    chunks — contiguous :class:`~repro.emulator.stream.ColumnStream`
    slices, in order (one call with the whole stream is the classic
    pre-run warming) — then :meth:`finish` exactly once before the
    first timed cycle.  The
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
        # Carve-in-progress state (start PC, instructions and directions
        # of the pending, not-yet-terminated fragment) — carried across
        # feed() calls, whose chunks are separate column streams.
        self._start_pc = 0
        self._insts: List[Instruction] = []
        self._directions: List[bool] = []
        #: The stream's live-out memo, which the processor's commit
        #: carver shares.
        self._liveouts = processor.shared.oracle.liveouts
        # Last I-line touched, carried so a fragment of straight-line
        # code split across chunks still fills each line exactly once.
        self._seen_line = -1
        self._finished = False

    # -- incremental warming ------------------------------------------------

    def feed(self, chunk: ColumnStream) -> None:
        """Warm all structures with the next *chunk* of the stream.

        Chunks must arrive in stream order across calls; NOPs are kept
        for cache touches and ignored everywhere else, exactly as in the
        whole-stream pass.
        """
        if self._finished:
            raise RuntimeError("WarmingState.feed() after finish()")
        processor = self.processor
        bimodal = processor.bimodal
        memory = processor.memory
        insts = self._insts
        directions = self._directions
        seen_line = self._seen_line
        config = self._config

        for pc, inst, taken, ea, has_ea in zip(
                chunk.pc, chunk.program.insts_at(chunk.pc), chunk.taken,
                chunk.ea, chunk.has_ea):
            # Caches: touch lines in reference order so LRU is realistic.
            line = pc >> 6
            if line != seen_line:
                memory.l2.fill(pc)
                memory.l1i.fill(pc)
                seen_line = line
            if has_ea:
                memory.l2.fill(ea)
                memory.l1d.fill(ea)

            if inst.is_nop:
                continue

            # Branch outcome predictor.
            if inst.is_cond_branch:
                direction = TAKEN[taken]
                bimodal.train(pc, direction)
                directions.append(direction)

            # Fragment carving (same termination rules as carve_stream).
            if not insts:
                self._start_pc = pc
            insts.append(inst)
            if should_terminate(inst, len(insts), config) is not None:
                self._train(FragmentKey(self._start_pc, tuple(directions)),
                            insts)
                insts = self._insts = []
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

    def _train(self, key: FragmentKey, insts: List[Instruction]) -> None:
        """Train the fragment-sequence predictors on a carved fragment,
        exactly as the commit-side carver would."""
        processor = self.processor
        processor.trace_predictor.train(key)
        processor.liveout_predictor.train(
            key, memo_liveouts(self._liveouts, key, len(insts),
                               lambda: insts))
        if processor.trace_cache is not None:
            processor.trace_cache.insert(key)
        # Pure-cache prewarm: walk caches, decode cache, SoA metadata and
        # chunk tables for the key the predictors just trained on — these
        # are keyed pure functions, so prebuilding them is as invisible
        # to the timed run as the predictor training above (repeat keys
        # cost only a memo probe).
        processor.prewarm_fragment_key(key)

    def flush(self) -> None:
        """Train the trailing truncated fragment, if one is pending.

        Matches :func:`repro.frontend.fragments.carve_stream`, which
        emits the final partial fragment with ``STREAM_END``.
        """
        if self._insts:
            self._train(FragmentKey(self._start_pc, tuple(self._directions)),
                        self._insts)
            self._insts = []
            self._directions = []

    def discard_partial(self) -> int:
        """Drop the carve-in-progress fragment without training it.

        Used at gap → detailed-window boundaries in sampled simulation:
        the window's commit carver re-carves from the window start, so
        training the artificial boundary fragment here would either
        double-train or train a fragment the full-detail run never sees.
        Returns the number of instructions dropped.
        """
        dropped = len(self._insts)
        self._insts = []
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


def cache_touches(chunk: ColumnStream,
                  seen_line: int = -1) -> List[Tuple[int, bool]]:
    """The cache touches :meth:`WarmingState.feed` makes for *chunk*.

    ``(address, is_instruction)`` in stream order: an instruction-side
    touch whenever the I-line changes, a data-side touch per memory
    instruction.  *seen_line* is the I-line carried in from the previous
    chunk (the last PC's ``pc >> 6``; -1 at the start of a run).
    """
    touches: List[Tuple[int, bool]] = []
    append = touches.append
    for pc, ea, has_ea in zip(chunk.pc, chunk.ea, chunk.has_ea):
        line = pc >> 6
        if line != seen_line:
            append((pc, True))
            seen_line = line
        if has_ea:
            append((ea, False))
    return touches


def warm_donor_group(donors: Sequence, stream: ColumnStream) -> None:
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
    loops over the stream's columns, each skipped when nothing needs it:
    the cache touches, then branch training and carving (no structure's
    updates depend on another's, so the two need not interleave).  A
    carve's live-outs come through the stream's live-out memo, which
    the commit carvers of every processor on the stream share.

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

    pcs = stream.pc

    def train(key: FragmentKey, insts: List[Instruction]) -> None:
        for predictor in predictors:
            predictor.train(key)
        if liveouts:
            info = memo_liveouts(stream.liveouts, key, len(insts),
                                 lambda: insts)
            for liveout in liveouts:
                liveout.train(key, info)
        for trace_cache in trace_caches:
            trace_cache.insert(key)

    if inst_fills or data_fills:
        seen_line = -1
        for pc, ea, has_ea in zip(pcs, stream.ea, stream.has_ea):
            line = pc >> 6
            if line != seen_line:
                for fill in inst_fills:
                    fill(pc)
                seen_line = line
            if has_ea and data_fills:
                for fill in data_fills:
                    fill(ea)

    if bimodal_trains or carve:
        start_pc = 0
        insts: List[Instruction] = []
        directions: List[bool] = []
        for pc, inst, taken in zip(pcs, stream.program.insts_at(pcs),
                                   stream.taken):
            if inst.is_nop:
                continue
            if inst.is_cond_branch:
                direction = TAKEN[taken]
                for bimodal_train in bimodal_trains:
                    bimodal_train(pc, direction)
                if carve:
                    directions.append(direction)
            if carve:
                if not insts:
                    start_pc = pc
                insts.append(inst)
                if should_terminate(inst, len(insts), config) is not None:
                    train(FragmentKey(start_pc, tuple(directions)), insts)
                    insts = []
                    directions = []
        if insts:
            train(FragmentKey(start_pc, tuple(directions)), insts)

    for stats in {id(donor.stats): donor.stats for donor in donors}.values():
        stats.reset()
    for predictor in predictors:
        predictor.restore_history(())


def warm_processor(processor: "Processor", stream: ColumnStream,
                   chunk_size: Optional[int] = None) -> None:
    """Warm *processor*'s predictors and caches with *stream*.

    Must be called before the first timing cycle.  *chunk_size* feeds the
    stream through :class:`WarmingState` in slices of that many entries —
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
