"""Out-of-order execution core: window, scheduler, functional units.

Models the Table 1 back-end: a 256-entry instruction window fed through a
short dispatch pipeline, an oldest-first wakeup/select scheduler over the
functional-unit pool, a load/store path through the D-cache, and per-cycle
issue/width limits.  Commit ordering lives in the processor (it needs
fragment bookkeeping); the core exposes window-entry reservation and
per-cycle completion events.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from repro.config import BackEndConfig
from repro.core.uop import MicroOp, PlaceholderProducer, UopState
from repro.errors import SimulationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatsCollector

_DONE_STATES = (UopState.DONE, UopState.COMMITTED)


class OutOfOrderCore:
    """Window + scheduler + functional units.

    *eas* is the oracle's effective-address column: a correct-path load
    or store accesses the D-cache at ``eas[uop.oracle_idx]``.
    """

    def __init__(self, config: BackEndConfig, memory: MemoryHierarchy,
                 stats: StatsCollector, eas: Sequence[int] = ()):
        self.config = config
        self.memory = memory
        self.stats = stats
        self._counts = self.stats.counts
        self.eas = eas
        self._reserved = 0
        self._reservations: Dict[int, int] = {}
        self._dispatch: Deque[MicroOp] = deque()
        self._ready: List[Tuple[int, MicroOp]] = []
        self._completions: Dict[int, List[MicroOp]] = {}

    # -- window reservation (ROB entries, Section 4.2) -------------------

    @property
    def window_free(self) -> int:
        """Unreserved instruction-window slots."""
        return self.config.window_size - self._reserved

    @property
    def window_used(self) -> int:
        """Reserved window entries (the ROB-fill observability gauge)."""
        return self._reserved

    def reserve(self, count: int, fragment_seq: int) -> bool:
        """Reserve *count* window entries for a fragment."""
        if count > self.window_free:
            return False
        self._reserved += count
        self._reservations[fragment_seq] = (
            self._reservations.get(fragment_seq, 0) + count)
        return True

    def release(self, fragment_seq: int, count: int = 1) -> None:
        """Return up to *count* of *fragment_seq*'s reserved window slots."""
        held = self._reservations.get(fragment_seq, 0)
        count = min(count, held)
        if count <= 0:
            return
        self._reserved -= count
        if held == count:
            self._reservations.pop(fragment_seq, None)
        else:
            self._reservations[fragment_seq] = held - count

    def release_all(self, fragment_seq: int) -> None:
        """Release every entry still held by a squashed fragment."""
        self.release(fragment_seq, self._reservations.get(fragment_seq, 0))

    def set_reservation(self, fragment_seq: int, target: int) -> None:
        """Shrink a fragment's reservation to *target* entries (used when
        a misprediction truncates the fragment)."""
        held = self._reservations.get(fragment_seq, 0)
        if held > target:
            self.release(fragment_seq, held - target)

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, uops: List[MicroOp], now: int) -> None:
        """Queue renamed uops; they enter the window after the dispatch
        pipeline latency."""
        ready_at = now + self.config.dispatch_latency
        for uop in uops:
            uop.dispatch_ready_cycle = ready_at
            self._dispatch.append(uop)

    def queue_dispatched(self, uops: List[MicroOp]) -> None:
        """:meth:`dispatch` for uops whose ``dispatch_ready_cycle`` the
        renamer already stamped — one C-level extend instead of a per-uop
        pass."""
        self._dispatch.extend(uops)

    def _attach_waiter(self, source, consumer: MicroOp) -> bool:
        """Register *consumer* to be woken when *source* completes.

        Placeholder chains (cold-fragment pass-through mappings) are
        walked to the deepest unresolved producer.  Returns True when the
        consumer must wait, False when the source is already available.
        """
        while isinstance(source, PlaceholderProducer):
            if source.done:
                return False
            if source.producer is None:
                source.consumers.append(consumer)
                return True
            source = source.producer
        if source.state in _DONE_STATES:
            return False
        source.consumers.append(consumer)
        return True

    @staticmethod
    def detach_waiter(consumer: MicroOp) -> None:
        """Undo :meth:`_attach_waiter` for every source of *consumer*.

        Drops it from the wait list of each source and of every
        placeholder chain behind one, so a producer it stops listing
        (selective re-execution relinks its sources) cannot wake it.
        """
        for source in consumer.sources:
            while source is not None:
                if consumer in source.consumers:
                    source.consumers = [c for c in source.consumers
                                        if c is not consumer]
                source = (source.producer
                          if isinstance(source, PlaceholderProducer)
                          else None)

    def cancel_completion(self, uop: MicroOp) -> None:
        """Withdraw the completion event an executing *uop*'s issue
        scheduled.

        Selective re-execution resets executing uops; an event left
        behind would finish the re-issued uop at the old, earlier cycle.
        """
        for due, bucket in self._completions.items():
            if uop in bucket:
                bucket.remove(uop)
                if not bucket:
                    del self._completions[due]
                return

    def bind_placeholder(self, placeholder: PlaceholderProducer,
                         producer=None, ready: bool = False) -> None:
        """Late-bind a placeholder (cold-fragment resolution).

        Unlike :meth:`PlaceholderProducer.bind`, this handles producers
        that have already completed by waking waiting consumers.
        """
        consumers, placeholder.consumers = placeholder.consumers, []
        # Path compression: resolve through intermediate placeholders so
        # pass-through chains (delay rename / cold fragments) stay short.
        while isinstance(producer, PlaceholderProducer):
            if producer.ready:
                ready = True
                producer = None
                break
            if producer.producer is None:
                break
            producer = producer.producer
        if ready:
            placeholder.ready = True
        else:
            placeholder.producer = producer
        for consumer in consumers:
            if consumer.state is not UopState.WAITING:
                continue
            if not self._attach_waiter(placeholder, consumer):
                consumer.pending -= 1
                if consumer.pending <= 0:
                    consumer.state = UopState.READY
                    heapq.heappush(self._ready, (consumer.seq, consumer))

    # -- per-cycle operation ------------------------------------------------

    _EMPTY: List[MicroOp] = []

    def cycle(self, now: int) -> List[MicroOp]:
        """One execution cycle; returns uops that completed this cycle.

        Completes the uops due now (waking their consumers), moves
        dispatched uops whose pipeline delay has passed into the window,
        then issues oldest-first under the issue width and per-pool
        functional-unit limits.  The dispatch-insert and issue loops are
        inlined with hoisted lookups, and the overwhelmingly common
        :class:`MicroOp` source skips the placeholder-chain walk of
        :meth:`_attach_waiter`.  Idle phases are skipped outright.
        """
        completed = (self._complete(now) if now in self._completions
                     else self._EMPTY)
        dispatch = self._dispatch
        ready = self._ready
        heappush = heapq.heappush
        if dispatch:
            done = UopState.DONE
            committed = UopState.COMMITTED
            squashed = UopState.SQUASHED
            renamed = UopState.RENAMED
            ready_state = UopState.READY
            waiting = UopState.WAITING
            popleft = dispatch.popleft
            attach = self._attach_waiter
            while dispatch and dispatch[0].dispatch_ready_cycle <= now:
                uop = popleft()
                state = uop.state
                if state is squashed:
                    continue
                if state is not renamed:
                    raise SimulationError(
                        f"dispatching uop in state {uop.state}")
                pending = 0
                for source in uop.sources:
                    if source.__class__ is MicroOp:
                        sstate = source.state
                        if sstate is done or sstate is committed:
                            continue
                        source.consumers.append(uop)
                        pending += 1
                    elif attach(source, uop):
                        pending += 1
                uop.pending = pending
                if pending == 0:
                    uop.state = ready_state
                    heappush(ready, (uop.seq, uop))
                else:
                    uop.state = waiting
        if ready:
            config = self.config
            counts_get = config.fu_counts.get
            width = config.issue_width
            latencies = config.fu_latencies
            completions = self._completions
            data_access = self.memory.data_access
            eas = self.eas
            used: Dict[str, int] = {}
            used_get = used.get
            heappop = heapq.heappop
            ready_state = UopState.READY
            executing = UopState.EXECUTING
            issued = 0
            skipped: List[Tuple[int, MicroOp]] = []
            while ready and issued < width:
                item = heappop(ready)
                uop = item[1]
                if uop.state is not ready_state:
                    continue  # squashed while queued
                decoded = uop.decoded
                pool = decoded.pool
                in_use = used_get(pool, 0)
                if in_use >= counts_get(pool, 0):
                    skipped.append(item)
                    continue
                used[pool] = in_use + 1
                issued += 1
                # Start execution.
                uop.state = executing
                uop.issue_cycle = now
                done_at = now + latencies[decoded.latency_key]
                inst = uop.inst
                if inst.is_mem and uop.oracle_idx >= 0:
                    data_ready = data_access(eas[uop.oracle_idx], now)
                    if inst.is_load:
                        done_at = max(done_at, data_ready + 1)
                # Wrong-path memory ops have no architectural address;
                # they are charged the L1-hit path only.
                bucket = completions.get(done_at)
                if bucket is None:
                    completions[done_at] = [uop]
                else:
                    bucket.append(uop)
            for item in skipped:
                heappush(ready, item)
            if skipped:
                self._counts["exec.fu_structural_stalls"] += len(skipped)
            self._counts["exec.issued"] += issued
        return completed

    def _complete(self, now: int) -> List[MicroOp]:
        """Finish the uops due at *now* and wake their waiting consumers
        (one inlined pass, state lookups hoisted)."""
        finished = []
        executing = UopState.EXECUTING
        done = UopState.DONE
        waiting = UopState.WAITING
        ready_state = UopState.READY
        ready = self._ready
        heappush = heapq.heappush
        for uop in self._completions.pop(now):
            if uop.state is not executing:
                continue  # squashed in flight
            uop.state = done
            uop.complete_cycle = now
            consumers = uop.consumers
            if consumers:
                uop.consumers = []
                for consumer in consumers:
                    if consumer.state is not waiting:
                        continue
                    consumer.pending -= 1
                    if consumer.pending <= 0:
                        consumer.state = ready_state
                        heappush(ready, (consumer.seq, consumer))
            finished.append(uop)
        return finished

    # -- introspection ---------------------------------------------------

    def in_flight_dispatch(self) -> int:
        """Uops renamed but not yet inserted into the window."""
        return len(self._dispatch)

    def drop_squashed_dispatch(self) -> None:
        """Prune squashed uops from the dispatch queue (after a squash)."""
        self._dispatch = deque(u for u in self._dispatch
                               if u.state is not UopState.SQUASHED)

    def drop_squashed(self) -> None:
        """Prune squashed uops from the dispatch queue and the ready heap.

        Needed after a live-out squash: the squashed fragments re-rename
        under their old uop seqs, and a stale ready entry sharing a seq
        with its re-renamed twin would make the heap compare two uops.
        Squashed entries are skipped at issue anyway, so dropping them
        early changes no result.
        """
        self.drop_squashed_dispatch()
        ready = [item for item in self._ready
                 if item[1].state is not UopState.SQUASHED]
        heapq.heapify(ready)
        self._ready = ready
