"""Front-end control: the predicted fragment chain.

All three fetch mechanisms (W16, trace cache, parallel fetch) consume the
same abstraction: a sequence of predicted fragments.  This module owns
that sequence — it consults the trace/fragment predictor (one prediction
per cycle, the paper's structural limit), applies the statically-known
fall-through override, falls back to the return-address stack after
``ret``-terminated fragments, stalls behind unresolved indirect jumps, and
checkpoints/recovers predictor state around mispredictions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import FragmentConfig
from repro.frontend.buffers import FragmentInFlight
from repro.frontend.fragments import (
    FragmentKey,
    StaticFragment,
    TerminationReason,
    walk_fragment,
)
from repro.isa.program import Program
from repro.predictors.return_stack import ReturnAddressStack
from repro.predictors.trace_predictor import TracePredictor
from repro.stats import StatsCollector

#: Bound on cached fragment walks; overflow clears the cache outright
#: (cheap, and a working set anywhere near this size is a wrong-path
#: explosion, not a loop).
_WALK_CACHE_CAPACITY = 32768


class WalkMemos:
    """The fragment-walk memos of one program and fragment config.

    A walk depends only on the program, the fragment config, its key
    and — for walks that consulted it — the asking control's direction
    fallback, so one pair of memos serves every
    :class:`FrontEndControl` on the same program and fragment config:
    each co-sim sibling and every sampled window
    (:class:`repro.perf.soa.SharedStream` holds one per fragment
    config).
    """

    __slots__ = ("pure", "fallback")

    def __init__(self) -> None:
        #: ``(start_pc, directions) -> StaticFragment`` memo for walks
        #: that never consulted the direction fallback — only those are
        #: pure functions of the key (the bimodal fallback trains over
        #: time, so a walk that asked it may answer differently later).
        self.pure: Dict[Tuple[int, Tuple[bool, ...]], StaticFragment] = {}
        #: Verify-on-hit memo for walks that *did* consult the
        #: fallback: each entry records the fragment plus the exact
        #: ``(pc, answer)`` sequence the fallback produced during the
        #: original walk.  A hit re-asks the asking control's own
        #: (pure) fallback the same questions in the same order; if
        #: every answer still matches, replaying the cached fragment is
        #: bit-identical to re-walking.  Any drift (the bimodal table
        #: trained since, or another processor's table recorded the
        #: entry) falls back to a fresh walk.  See ``docs/DATA_LAYOUT.md``.
        self.fallback: Dict[
            Tuple[int, Tuple[bool, ...]],
            Tuple[StaticFragment, Tuple[Tuple[int, bool], ...]]] = {}


class FrontEndControl:
    """Generates the next predicted fragment, one per cycle at most."""

    def __init__(self, program: Program, fragment_config: FragmentConfig,
                 predictor: TracePredictor, ras: ReturnAddressStack,
                 stats: StatsCollector, start_pc: int,
                 direction_fallback=None,
                 memos: Optional[WalkMemos] = None):
        self.program = program
        self.fragment_config = fragment_config
        self.predictor = predictor
        self.ras = ras
        self.stats = stats
        self._counts = self.stats.counts
        #: ``pc -> bool`` fallback direction source (bimodal predictor).
        self.direction_fallback = direction_fallback
        #: The walk memos, shared by every control on this program and
        #: fragment config that was handed the same instance.
        self.memos = WalkMemos() if memos is None else memos

        self._next_seq = 0
        #: Statically-known (or redirect-supplied) start of the next
        #: fragment; None when the next start must come from a predictor.
        self._forced_start: Optional[int] = start_pc
        #: RAS-supplied start after a ``ret``-terminated fragment.
        self._ras_hint: Optional[int] = None
        #: True when fetch is stalled behind an unresolved indirect.
        self.stalled_on_indirect = False

    # -- fragment generation ----------------------------------------------

    def try_next_fragment(self) -> Optional[FragmentInFlight]:
        """Produce the next fragment of the predicted chain, or None when
        the next start PC is unknown (stalled behind an indirect)."""
        prediction = self.predictor.predict()
        start, directions = self._resolve_start(prediction)
        if start is None:
            self.stalled_on_indirect = True
            self.stats.add("frontend.indirect_stall_cycles")
            return None
        self.stalled_on_indirect = False

        history_snapshot = self.predictor.snapshot_history()
        ras_snapshot = self.ras.snapshot()
        static_frag = self._walk(start, directions)
        fragment = FragmentInFlight(self._next_seq, static_frag.key,
                                    static_frag, history_snapshot,
                                    ras_snapshot)
        self._next_seq += 1

        self.predictor.push_history(static_frag.key)
        self._replay_ras(static_frag, len(static_frag.instructions))
        self._prepare_next_start(static_frag)
        self._counts["frontend.fragments_created"] += 1
        return fragment

    def prewarm(self, start: int, directions) -> StaticFragment:
        """Pre-walk one fragment key into the walk caches.

        Functional-warming hook: only the pure walk cache and the
        verify-on-hit fallback memo are populated — both replay
        bit-identically (the memo re-verifies its recorded fallback
        answers on every hit), so prewarming cannot change results.
        Returns the walked fragment."""
        return self._walk(start, directions)

    def _walk(self, start: int, directions) -> StaticFragment:
        """Walk (or recall) the fragment at ``(start, directions)``.

        Walks that never consulted the direction fallback are memoised
        unconditionally: with every conditional branch covered by a
        supplied direction bit, the walk is a pure function of the key
        and the (immutable) program.  Fallback-consulted walks are
        additionally memoised with the fallback's recorded
        answers and verified on every hit (the bimodal table trains over
        time, so yesterday's answers may have drifted); either way the
        replayed result is bit-identical to re-walking.
        """
        memos = self.memos
        cache = memos.pure
        fallback = self.direction_fallback
        key = (start, tuple(directions))
        cached = cache.get(key)
        if cached is not None:
            return cached
        memo = memos.fallback
        if fallback is not None:
            entry = memo.get(key)
            if entry is not None:
                static_frag, checks = entry
                for pc, answer in checks:
                    if fallback(pc) is not answer:
                        break
                else:
                    return static_frag
        asked: list = []
        gated = None
        if fallback is not None:
            append = asked.append
            def gated(pc, _fallback=fallback, _append=append):
                answer = _fallback(pc)
                _append((pc, answer))
                return answer
        static_frag = walk_fragment(self.program, start, directions,
                                    self.fragment_config, fallback=gated)
        if not asked:
            if len(cache) >= _WALK_CACHE_CAPACITY:
                cache.clear()
            cache[key] = static_frag
        else:
            if len(memo) >= _WALK_CACHE_CAPACITY:
                memo.clear()
            memo[key] = (static_frag, tuple(asked))
        return static_frag

    def _resolve_start(self, prediction: Optional[FragmentKey]):
        """Decide the next fragment's start PC and direction bits."""
        if self._forced_start is not None:
            start = self._forced_start
            if prediction is not None and prediction.start_pc == start:
                return start, prediction.directions
            if prediction is not None:
                self.stats.add("frontend.start_overrides")
            return start, ()
        if self._ras_hint is not None:
            start = self._ras_hint
            if prediction is not None and prediction.start_pc == start:
                return start, prediction.directions
            return start, ()
        if prediction is not None:
            return prediction.start_pc, prediction.directions
        return None, ()

    def _prepare_next_start(self, static_frag: StaticFragment) -> None:
        """Set up the start source for the fragment after *static_frag*."""
        self._forced_start = None
        self._ras_hint = None
        if static_frag.next_pc is not None:
            self._forced_start = static_frag.next_pc
        elif (static_frag.reason is TerminationReason.INDIRECT
              and static_frag.instructions
              and static_frag.instructions[-1].is_return):
            self._ras_hint = self.ras.pop()

    def _replay_ras(self, static_frag: StaticFragment, upto: int) -> None:
        """Apply the RAS effects of the fragment's first *upto* insts.

        The terminal ``ret``'s pop is handled by :meth:`_prepare_next_start`
        (the popped value doubles as the next-start hint), so it is skipped
        here.
        """
        for inst in static_frag.instructions[:upto]:
            if inst.is_call:
                self.ras.push(inst.next_addr)

    # -- recovery ------------------------------------------------------------

    def redirect(self, target_pc: int,
                 fragment: Optional[FragmentInFlight] = None,
                 valid_prefix: int = 0) -> None:
        """Redirect the fragment chain to *target_pc*.

        When the misprediction happened inside *fragment* (whose first
        *valid_prefix* instructions remain architecturally valid), predictor
        history and RAS are rolled back to the fragment's checkpoints and
        the valid prefix's RAS effects are replayed.
        """
        if fragment is not None:
            self.predictor.restore_history(fragment.history_snapshot)
            self.ras.restore(fragment.ras_snapshot)
            self._replay_ras(fragment.static_frag, valid_prefix)
            last_valid = (fragment.static_frag.instructions[valid_prefix - 1]
                          if valid_prefix else None)
            if last_valid is not None and last_valid.is_return:
                self.ras.pop()
        self._forced_start = target_pc
        self._ras_hint = None
        self.stalled_on_indirect = False
        self.stats.add("frontend.redirects")
