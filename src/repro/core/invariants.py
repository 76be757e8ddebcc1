"""Pipeline self-checking: forward-progress watchdog and state audits.

The simulator's only livelock defence used to be the ``max_cycles`` bound
in :meth:`Processor.run`, which turns a wedged pipeline into a silent
``sim.timeout`` statistic tens of thousands of cycles later.  This module
gives the timing model two layers of self-checking:

* :class:`PipelineWatchdog` — always on (disable with
  ``REPRO_WATCHDOG_CYCLES=0``): if no instruction commits for
  ``stall_limit`` consecutive cycles, raises
  :class:`~repro.errors.DeadlockError` carrying a cycle-stamped dump of
  the pipeline state, long before the ``max_cycles`` bound.
* :class:`InvariantChecker` — opt-in (``REPRO_INVARIANT_CHECKS=1``, or a
  cycle interval): per-cycle structural audits of uop accounting across
  fetch/rename/commit, fragment-buffer occupancy/refcount consistency,
  and rename map-table consistency, raising
  :class:`~repro.errors.InvariantError` at the first inconsistent cycle
  instead of letting corruption surface as wrong counters much later.

Both are cheap to construct and attached to every
:class:`~repro.core.processor.Processor`; the audits cost one pipeline
walk per checked cycle and are therefore opt-in.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.config import env_flag, env_int
from repro.core.uop import UopState
from repro.errors import DeadlockError, InvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.processor import Processor

WATCHDOG_ENV = "REPRO_WATCHDOG_CYCLES"
INVARIANTS_ENV = "REPRO_INVARIANT_CHECKS"

#: Cycles without a single commit before the watchdog declares livelock.
#: Healthy no-commit stretches (pipeline refill after a squash, a memory
#: round trip) are two orders of magnitude shorter than this.
DEFAULT_STALL_CYCLES = 2_000


def dump_pipeline_state(processor: "Processor") -> str:
    """A cycle-stamped, human-readable dump of the pipeline state."""
    lines = [
        f"=== pipeline state @ cycle {processor.now} ===",
        f"committed {processor.committed}"
        f"/{len(processor._oracle)} oracle insts"
        f" (oracle_pos={processor._oracle_pos},"
        f" diverged={processor._diverged})",
        f"fragments in flight: {len(processor.fragments)}",
    ]
    for fragment in processor.fragments:
        flags = []
        if fragment.reused:
            flags.append("reused")
        if fragment.complete:
            flags.append("complete")
        if fragment.rename_done:
            flags.append("rename_done")
        if fragment.squashed:
            flags.append("squashed")
        if fragment.truncated_at is not None:
            flags.append(f"truncated@{fragment.truncated_at}")
        if fragment.mispredict_position is not None:
            flags.append(f"mispredict@{fragment.mispredict_position}")
        if fragment.stalled_for_indirect:
            flags.append("stalled_for_indirect")
        lines.append(
            f"  frag#{fragment.seq} pc=0x{fragment.key.start_pc:x}"
            f" buf={fragment.buffer_index}"
            f" fetched={fragment.fetched_count}/{fragment.static_frag.length}"
            f" renamed={fragment.read_count} uops={len(fragment.uops)}"
            f" committed={fragment.committed_count}"
            + (f" [{','.join(flags)}]" if flags else ""))
    buffers = processor.buffers._buffers
    occupied = [f"#{b.occupant.seq}@{b.index}" for b in buffers if b.occupant]
    lines.append(f"buffers: {len(buffers) - len(occupied)}/{len(buffers)}"
                 f" free; occupied: {' '.join(occupied) or '-'}")
    if processor._pending_reexec:
        lines.append(
            f"pending re-execution: {sorted(processor._pending_reexec)}")
    for counter in ("fetch.insts", "rename.insts", "commit.insts",
                    "frontend.recoveries", "frontend.alloc_blocked_cycles"):
        lines.append(f"  {counter:35} {processor.stats.get(counter):12.0f}")
    return "\n".join(lines)


class PipelineWatchdog:
    """Detects no-commit livelock long before the ``max_cycles`` bound."""

    def __init__(self, stall_limit: int = DEFAULT_STALL_CYCLES):
        self.stall_limit = stall_limit
        self._last_committed = -1
        self._last_progress_cycle = 0
        self._stalled = 0

    @classmethod
    def from_env(cls) -> Optional["PipelineWatchdog"]:
        """Default watchdog; ``REPRO_WATCHDOG_CYCLES=0`` disables it.

        Raises :class:`~repro.errors.ConfigError` when the variable is
        not an integer.
        """
        limit = env_int(WATCHDOG_ENV, DEFAULT_STALL_CYCLES)
        return cls(stall_limit=limit) if limit > 0 else None

    @property
    def stalled_cycles(self) -> int:
        """Consecutive commit-free cycles observed so far."""
        return self._stalled

    def observe(self, processor: "Processor") -> None:
        """Record this cycle's progress; raise on a stalled pipeline."""
        if processor.committed != self._last_committed:
            self._last_committed = processor.committed
            self._last_progress_cycle = processor.now
            self._stalled = 0
            return
        self._stalled = processor.now - self._last_progress_cycle
        if self._stalled >= self.stall_limit:
            raise DeadlockError(
                f"no instruction committed for {self._stalled} cycles "
                f"(watchdog limit {self.stall_limit}); "
                f"the pipeline is livelocked",
                cycle=processor.now,
                dump=dump_pipeline_state(processor))


class InvariantChecker:
    """Opt-in per-cycle structural audits of the pipeline state."""

    def __init__(self, interval: int = 1):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval

    @classmethod
    def from_env(cls) -> Optional["InvariantChecker"]:
        """Checker per ``REPRO_INVARIANT_CHECKS`` (unset/falsy = off).

        A value > 1 audits every N-th cycle, trading detection latency
        for speed.
        """
        if not env_flag(INVARIANTS_ENV):
            return None
        raw = os.environ.get(INVARIANTS_ENV, "").strip()
        interval = int(raw) if raw.isdigit() else 1
        return cls(interval=max(1, interval))

    def check(self, processor: "Processor") -> None:
        """Audit *processor*; raises :class:`InvariantError` on failure."""
        if processor.now % self.interval:
            return
        self._audit_fragment_order(processor)
        self._audit_uop_accounting(processor)
        self._audit_buffers(processor)
        self._audit_rename_maps(processor)

    @staticmethod
    def _fail(processor: "Processor", message: str) -> None:
        raise InvariantError(message, cycle=processor.now,
                             dump=dump_pipeline_state(processor))

    def _audit_fragment_order(self, processor: "Processor") -> None:
        previous = -1
        for fragment in processor.fragments:
            if fragment.seq <= previous:
                self._fail(processor,
                           f"fragment order violated: frag#{fragment.seq} "
                           f"follows frag#{previous}")
            previous = fragment.seq
            if fragment.squashed:
                self._fail(processor,
                           f"squashed frag#{fragment.seq} still in the "
                           f"in-flight list")

    def _audit_uop_accounting(self, processor: "Processor") -> None:
        """Fetch/rename/commit cursors must stay mutually consistent."""
        for i, fragment in enumerate(processor.fragments):
            limit = fragment.length
            if fragment.committed_count > limit:
                self._fail(processor,
                           f"frag#{fragment.seq} committed "
                           f"{fragment.committed_count} of {limit} insts")
            if fragment.read_count > limit:
                self._fail(processor,
                           f"frag#{fragment.seq} renamed "
                           f"{fragment.read_count} of {limit} insts")
            if fragment.fetched_count > fragment.static_frag.length:
                self._fail(processor,
                           f"frag#{fragment.seq} fetched "
                           f"{fragment.fetched_count} insts of a "
                           f"{fragment.static_frag.length}-inst fragment")
            if fragment.committed_count > len(fragment.uops):
                self._fail(processor,
                           f"frag#{fragment.seq} committed "
                           f"{fragment.committed_count} uops but only "
                           f"{len(fragment.uops)} were renamed")
            if i > 0 and fragment.committed_count:
                self._fail(processor,
                           f"non-head frag#{fragment.seq} has "
                           f"{fragment.committed_count} committed insts")
            for position, uop in enumerate(fragment.uops):
                committed = uop.state is UopState.COMMITTED
                if committed and position >= fragment.committed_count:
                    self._fail(processor,
                               f"frag#{fragment.seq} uop {position} is "
                               f"committed beyond the commit cursor "
                               f"{fragment.committed_count}")
                if committed and uop.oracle_idx < 0:
                    self._fail(processor,
                               f"frag#{fragment.seq} committed wrong-path "
                               f"uop at position {position}")

    def _audit_buffers(self, processor: "Processor") -> None:
        """Buffer array and fragment back-pointers must agree 1:1."""
        live = {fragment.seq: fragment for fragment in processor.fragments}
        for buffer in processor.buffers._buffers:
            occupant = buffer.occupant
            if occupant is None:
                continue
            if occupant.buffer_index != buffer.index:
                self._fail(processor,
                           f"buffer {buffer.index} holds frag"
                           f"#{occupant.seq} whose back-pointer is "
                           f"{occupant.buffer_index}")
            if live.get(occupant.seq) is not occupant:
                self._fail(processor,
                           f"buffer {buffer.index} holds frag"
                           f"#{occupant.seq} which is no longer in flight")
        for fragment in processor.fragments:
            if fragment.buffer_index is None:
                continue
            buffers = processor.buffers._buffers
            if not 0 <= fragment.buffer_index < len(buffers):
                self._fail(processor,
                           f"frag#{fragment.seq} points at nonexistent "
                           f"buffer {fragment.buffer_index}")
            if buffers[fragment.buffer_index].occupant is not fragment:
                self._fail(processor,
                           f"frag#{fragment.seq} points at buffer "
                           f"{fragment.buffer_index} occupied by someone "
                           f"else")

    def _audit_rename_maps(self, processor: "Processor") -> None:
        """Rename map tables must be self-consistent per fragment."""
        for fragment in processor.fragments:
            uops = set(map(id, fragment.uops))
            for reg, writer in fragment.internal_writers.items():
                if id(writer) not in uops:
                    self._fail(processor,
                               f"frag#{fragment.seq} internal writer for "
                               f"r{reg} is not one of its uops")
                if writer.inst.dest_reg() != reg:
                    self._fail(processor,
                               f"frag#{fragment.seq} internal writer for "
                               f"r{reg} writes r{writer.inst.dest_reg()}")
            if (fragment.rename_done
                    and fragment.incoming_map is not None
                    and fragment.outgoing_actual is not None):
                expected = dict(fragment.incoming_map)
                expected.update(fragment.internal_writers)
                if fragment.outgoing_actual != expected:
                    self._fail(processor,
                               f"frag#{fragment.seq} outgoing map is not "
                               f"incoming map + internal writers")
