"""Parallel rename with live-out prediction (Section 4).

Fragments are renamed in two phases:

* **Phase 1** (serial, one fragment per cycle, program order): the
  fragment is allocated instruction-window entries for its (perfectly)
  predicted length, its live-outs are predicted, a
  :class:`~repro.core.uop.PlaceholderProducer` is allocated for every
  predicted live-out register, and the updated register map — incoming map
  overlaid with the placeholders — is forwarded to the next fragment.

* **Phase 2** (parallel): each of N renamers renames one fragment,
  ``width/N`` instructions per cycle, using the fragment's incoming map
  for cross-fragment sources and binding placeholders at predicted
  last-write positions.

The four misprediction conditions of Section 4.3 are detected exactly:

1. a write to a register not predicted live-out (during rename);
2. no write to a predicted live-out register (subsumed by 4);
3. a write to a live-out register after its predicted last write
   (during rename);
4. no instruction bound to a predicted last write (at fragment end).

A fragment with no live-out prediction (cold) forwards no predicted map,
which serialises the next fragment's phase 1 behind its completed rename —
cold fragments cannot mispredict, they just lose parallelism.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.uop import MicroOp, PlaceholderProducer, Producer, UopState
from repro.frontend.buffers import FragmentInFlight
from repro.isa.registers import NUM_ARCH_REGS, ZERO_REG
from repro.predictors.liveout import LiveOutPredictor
from repro.stats import StatsCollector

#: Shared empty incoming map for fragments renamed before phase 1 set one.
_EMPTY: Dict[int, Producer] = {}


class ParallelRenamer:
    """N renamers of ``width/N`` instructions per cycle each."""

    def __init__(self, renamers: int, renamer_width: int, window,
                 liveout_predictor: LiveOutPredictor,
                 stats: StatsCollector,
                 use_liveout_prediction: bool = True,
                 dispatch_delay: int = 1):
        self.num_renamers = renamers
        self.renamer_width = renamer_width
        self.window = window
        self.liveout_predictor = liveout_predictor
        self.stats = stats
        #: Backend dispatch-pipeline latency, so a rename batch can
        #: stamp ``dispatch_ready_cycle`` at build time and hand the
        #: whole batch to the core in one extend.
        self.dispatch_delay = dispatch_delay
        #: False selects the paper's *solution 1* (Section 4): no live-out
        #: prediction; every fragment forwards pass-through placeholders
        #: and consumers are delayed until the mappings become available.
        self.use_liveout_prediction = use_liveout_prediction
        self._slots: List[Optional[FragmentInFlight]] = [None] * renamers
        #: Architectural map after every retired fragment.
        self._base_map: Dict[int, Producer] = {}
        #: Oldest fragment that detected a live-out misprediction this
        #: cycle; the processor squashes/renames younger fragments.
        self.pending_liveout_mispredict: Optional[FragmentInFlight] = None
        #: Every fragment that flagged a misprediction this cycle (the
        #: selective re-execution policy must repair each one).
        self.pending_liveout_mispredicts: List[FragmentInFlight] = []
        #: Whether this cycle finished any fragment's rename — the
        #: processor skips the buffer-release scan on cycles where nothing
        #: can have become releasable (rename_done is only ever set
        #: inside a renamer cycle or on paths that release explicitly).
        self.finished_any = False

    # -- per-cycle operation ----------------------------------------------

    def cycle(self, now: int,
              fragments: List[FragmentInFlight]) -> tuple:
        """Run both rename phases across all rename units this cycle;
        returns ``(renamed, wrongpath_count)``.

        Phase 1 runs at most once per cycle; phase 2 clears finished or
        squashed slots, fills idle ones oldest-first, and renames each
        slot's batch through :meth:`_rename_fragment`, building uops
        straight from the fragment's precomputed
        :class:`~repro.perf.soa.FragMeta` arrays.
        """
        self.pending_liveout_mispredict = None
        self.pending_liveout_mispredicts = []
        self.finished_any = False
        self._phase1(now, fragments)

        slots = self._slots
        free = 0
        for i, fragment in enumerate(slots):
            if fragment is None:
                free += 1
            elif fragment.squashed or fragment.rename_done:
                slots[i] = None
                free += 1
        if free:
            # Only scan for candidates when a slot can actually take one.
            assigned = {f.seq for f in slots if f is not None}
            candidates = [f for f in fragments
                          if f.phase1_done and not f.rename_done
                          and not f.squashed and f.seq not in assigned]
            for i in range(len(slots)):
                if slots[i] is None and candidates:
                    slots[i] = candidates.pop(0)

        renamed: List[MicroOp] = []
        wrong = 0
        for fragment in list(slots):
            if fragment is not None:
                wrong += self._rename_fragment(now, fragment, renamed)
        self.stats.add("rename.insts", len(renamed))
        return renamed, wrong

    # -- phase 1 -----------------------------------------------------------

    def _phase1(self, now: int, fragments: List[FragmentInFlight]) -> None:
        target: Optional[FragmentInFlight] = None
        predecessor: Optional[FragmentInFlight] = None
        for fragment in fragments:
            if fragment.squashed:
                continue
            if not fragment.phase1_done:
                target = fragment
                break
            predecessor = fragment
        if target is None:
            return

        incoming = self._incoming_map(predecessor)
        if incoming is None:
            self.stats.add("rename.phase1_map_stalls")
            return
        if not self.window.reserve(target.length, target.seq):
            self.stats.add("rename.window_stalls")
            return

        target.window_reserved = True
        target.incoming_map = dict(incoming)
        if self.use_liveout_prediction:
            prediction = self.liveout_predictor.predict(target.key)
            self.stats.add("rename.liveout_lookups")
        else:
            prediction = None
            self.stats.add("rename.delay_fragments")
        target.liveout_prediction = prediction
        outgoing = dict(target.incoming_map)
        if prediction is None:
            # No live-out information (cold fragment, or delay mode).
            # Forward a pass-through placeholder for every register;
            # consumers wait until this fragment's rename resolves each
            # mapping — the Multiscalar-style "delay until the mapping is
            # available" of Section 4.
            if self.use_liveout_prediction:
                self.stats.add("rename.liveout_cold")
            for reg in range(NUM_ARCH_REGS):
                if reg == ZERO_REG:
                    continue
                placeholder = PlaceholderProducer(reg, target.seq)
                target.placeholders[reg] = placeholder
                outgoing[reg] = placeholder
        else:
            for reg in prediction.liveout_list():
                placeholder = PlaceholderProducer(reg, target.seq)
                target.placeholders[reg] = placeholder
                outgoing[reg] = placeholder
        target.outgoing_predicted = outgoing
        target.phase1_done = True
        target.phase1_cycle = now

    def _incoming_map(self, predecessor: Optional[FragmentInFlight]
                      ) -> Optional[Dict[int, Producer]]:
        if predecessor is None:
            return self._base_map
        if predecessor.rename_done:
            return predecessor.outgoing_actual
        if (predecessor.phase1_done
                and predecessor.outgoing_predicted is not None
                and not predecessor.liveout_mispredicted):
            return predecessor.outgoing_predicted
        return None

    # -- phase 2 -----------------------------------------------------------

    def _rename_fragment(self, now: int, fragment: FragmentInFlight,
                         renamed: List[MicroOp]) -> int:
        """Rename up to ``renamer_width`` instructions of *fragment*
        (appends into *renamed*; returns the batch's wrong-path uop
        count).  Source linking follows the precomputed
        ``FragMeta.src_plan`` — the fragment's own earlier writer wins
        over the incoming map, resolved statically — and the live-out
        misprediction conditions are re-checked per uop because
        :meth:`_flag_mispredict` can fire mid-batch."""
        wrong = 0
        budget = min(self.renamer_width, fragment.renameable_count())
        if budget > 0 and fragment.rename_started_cycle < 0:
            fragment.rename_started_cycle = now
            self.stats.add("rename.fragments_started")
            if fragment.complete:
                self.stats.add("rename.fragments_preconstructed")
        if budget > 0:
            stats = self.stats
            meta = fragment.soa_meta
            insts = meta.insts
            pcs, dec_l = meta.pcs, meta.decoded
            plan_l, dest_l = meta.src_plan, meta.dest
            # Positions below ``matched`` are on the correct path, bound
            # to consecutive oracle entries.
            matched = fragment.matched
            oracle_base = fragment.oracle_start
            uops = fragment.uops
            writers = fragment.internal_writers
            incoming = fragment.incoming_map
            incoming_get = incoming.get if incoming is not None else _EMPTY.get
            placeholders_get = fragment.placeholders.get
            prediction = fragment.liveout_prediction
            # Only _flag_mispredict (called right here) can flip
            # liveout_mispredicted mid-batch, so tracking it in a local
            # is exact.  is_last_write is inlined as a bitmap test.
            check_liveout = (prediction is not None
                             and not fragment.liveout_mispredicted)
            lw_bits = prediction.last_writes if prediction is not None else 0
            renamed_state = UopState.RENAMED
            dispatch_ready = now + self.dispatch_delay
            fseq = fragment.seq
            seq_base = fseq << 8
            m_target = fragment.mispredict_target
            m_pos = (fragment.mispredict_position
                     if m_target is not None else None)
            start = fragment.read_count
            for p in range(start, start + budget):
                uop = MicroOp.__new__(MicroOp)
                uop.seq = seq_base | p
                uop.inst = insts[p]
                uop.pc = pcs[p]
                uop.fragment_seq = fseq
                uop.position = p
                if p < matched:
                    uop.oracle_idx = oracle_base + p
                else:
                    uop.oracle_idx = -1
                    wrong += 1
                uop.decoded = dec_l[p]
                uop.state = renamed_state
                sources: List[Producer] = []
                uop.sources = sources
                uop.complete_cycle = -1
                uop.renamed_cycle = now
                uop.dispatch_ready_cycle = dispatch_ready
                uop.consumers = []
                uop.pending = 0
                uop.redirect_target = m_target if p == m_pos else None
                uop.issue_cycle = -1
                uop.commit_cycle = -1
                before_source = False
                # src_plan resolves each source statically: codes >= 0
                # name an earlier position in this fragment (always a
                # MicroOp, never a placeholder), negative codes read
                # register ``-(code + 1)`` from the incoming map.
                for code in plan_l[p]:
                    if code >= 0:
                        sources.append(uops[code])
                    else:
                        producer = incoming_get(-1 - code)
                        if producer is not None:
                            sources.append(producer)
                            if (producer.__class__ is PlaceholderProducer
                                    and producer.producer is None):
                                before_source = True
                if before_source:
                    stats.add("rename.before_source")
                dest = dest_l[p]
                if dest is not None:
                    if check_liveout:
                        placeholder = placeholders_get(dest)
                        if placeholder is None:
                            # Condition 1: write to an unpredicted live-out.
                            self._flag_mispredict(fragment, "cond1")
                            check_liveout = False
                        elif lw_bits >> p & 1:
                            if placeholder.producer is not None:
                                # Two writes both claim the last-write slot.
                                self._flag_mispredict(fragment, "cond3")
                                check_liveout = False
                            else:
                                placeholder.bind(uop)
                        elif placeholder.producer is not None:
                            # Condition 3: write after predicted last write.
                            self._flag_mispredict(fragment, "cond3")
                            check_liveout = False
                    writers[dest] = uop
                uops.append(uop)
                renamed.append(uop)
            fragment.read_count = start + budget
        if (fragment.read_count >= fragment.length
                and not fragment.rename_done):
            self._finish_fragment(fragment, now)
        return wrong

    def _finish_fragment(self, fragment: FragmentInFlight,
                         now: int) -> None:
        prediction = fragment.liveout_prediction
        if prediction is None:
            self._resolve_cold_placeholders(fragment)
        elif (not fragment.liveout_mispredicted
                and fragment.truncated_at is None):
            # Condition 4: a predicted live-out never got its last write.
            if any(p.producer is None
                   for p in fragment.placeholders.values()):
                self._flag_mispredict(fragment, "cond4")
        outgoing = dict(fragment.incoming_map or {})
        outgoing.update(fragment.internal_writers)
        fragment.outgoing_actual = outgoing
        fragment.rename_done = True
        fragment.rename_done_cycle = now
        self.finished_any = True

    def _resolve_cold_placeholders(self, fragment: FragmentInFlight) -> None:
        """Bind a cold fragment's pass-through placeholders now that its
        actual writes are known."""
        incoming = fragment.incoming_map or {}
        for reg, placeholder in fragment.placeholders.items():
            writer = fragment.internal_writers.get(reg)
            if writer is not None:
                self.window.bind_placeholder(placeholder, producer=writer)
                continue
            upstream = incoming.get(reg)
            if upstream is None:
                self.window.bind_placeholder(placeholder, ready=True)
            else:
                self.window.bind_placeholder(placeholder, producer=upstream)

    def _flag_mispredict(self, fragment: FragmentInFlight,
                         condition: str) -> None:
        if fragment.liveout_mispredicted:
            return
        fragment.liveout_mispredicted = True
        self.stats.add("rename.liveout_mispredicts")
        self.stats.add(f"rename.liveout_{condition}")
        self.pending_liveout_mispredicts.append(fragment)
        if (self.pending_liveout_mispredict is None
                or fragment.seq < self.pending_liveout_mispredict.seq):
            self.pending_liveout_mispredict = fragment

    # -- recovery / retirement ---------------------------------------------

    def rebuild(self, fragments: List[FragmentInFlight]) -> None:
        """Drop stale fragments from renamer slots after a squash.

        A live-out squash resets younger fragments' phase 1, so slots also
        drop fragments that have lost their phase-1 state.
        """
        for i, fragment in enumerate(self._slots):
            if fragment is not None and (fragment.squashed
                                         or fragment.rename_done
                                         or not fragment.phase1_done):
                self._slots[i] = None

    def retire_fragment(self, fragment: FragmentInFlight) -> None:
        """Fold a fully-committed fragment's map into the base map."""
        if fragment.outgoing_actual is not None:
            self._base_map = fragment.outgoing_actual
