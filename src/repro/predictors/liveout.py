"""Live-out predictor for parallel renaming (Section 4.1 of the paper).

For each fragment the predictor supplies two bitmaps plus a length:

* ``liveout_regs`` — one bit per architectural register; bit *r* set means
  the fragment writes register *r* and later fragments may read it;
* ``last_writes`` — one bit per instruction in the fragment; bit *n* set
  means the fragment's *n*-th instruction is the last write of some
  live-out register;
* ``length`` — the fragment's instruction count (the paper assumes perfect
  length prediction; modelling it here lets experiments relax that).

The table is set-associative with small tags to detect aliasing, indexed
by a hash of the fragment's start address and branch directions —
Table 1's default is 4K entries, 2-way, 4-bit tags (84 bits/entry, 42 KB).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.config import LiveOutPredictorConfig
from repro.frontend.fragments import FragmentKey
from repro.isa.instructions import Instruction
from repro.isa.registers import ZERO_REG
from repro.stats import StatsCollector


class LiveOutInfo(NamedTuple):
    """Ground truth or prediction of a fragment's live-outs."""

    liveout_regs: int   # bitmap over architectural registers
    last_writes: int    # bitmap over fragment instruction positions
    length: int

    def liveout_list(self) -> List[int]:
        """Architectural register numbers in the live-out bitmap."""
        regs, bits, reg = [], self.liveout_regs, 0
        while bits:
            if bits & 1:
                regs.append(reg)
            bits >>= 1
            reg += 1
        return regs

    def is_last_write(self, position: int) -> bool:
        """True if the instruction at 0-based *position* is a last write."""
        return bool(self.last_writes >> position & 1)


def compute_liveouts(instructions: Sequence[Instruction]) -> LiveOutInfo:
    """Ground-truth live-out computation for a fragment.

    Every register the fragment writes is treated as a live-out (the
    hardware cannot know whether a later fragment will read it, so it must
    expose the final value of each written register).  Writes to the
    hardwired zero register are ignored.
    """
    last_writer = {}
    for position, inst in enumerate(instructions):
        dest = inst.dest_reg()
        if dest is not None and dest != ZERO_REG:
            last_writer[dest] = position
    regs_bitmap = 0
    writes_bitmap = 0
    for reg, position in last_writer.items():
        regs_bitmap |= 1 << reg
        writes_bitmap |= 1 << position
    return LiveOutInfo(regs_bitmap, writes_bitmap, len(instructions))


#: Entries a live-out memo keeps before it is wiped (a safety bound: a
#: stream revisits far fewer carve shapes).
LIVEOUT_MEMO_CAP = 8192


def memo_liveouts(memo: Dict[Tuple[FragmentKey, int], LiveOutInfo],
                  key: FragmentKey, length: int,
                  instructions: Callable[[], Sequence[Instruction]]
                  ) -> LiveOutInfo:
    """The ground-truth live-outs of a carve, through *memo*.

    A carve is keyed by its fragment key and *length*: within one
    program, the start PC, the direction bits and the length fix its
    instructions (an indirect always ends a carve), and
    :class:`LiveOutInfo` is immutable, so one entry serves every carve
    of that shape exactly.  *instructions* returns the carve's
    instructions; it is called on a miss only.
    """
    memo_key = (key, length)
    info = memo.get(memo_key)
    if info is None:
        if len(memo) >= LIVEOUT_MEMO_CAP:
            memo.clear()
        info = memo[memo_key] = compute_liveouts(instructions())
    return info


class _SetEntry(NamedTuple):
    tag: int
    info: LiveOutInfo


class LiveOutPredictor:
    """Set-associative live-out prediction table."""

    def __init__(self, config: LiveOutPredictorConfig,
                 stats: Optional[StatsCollector] = None):
        self.config = config
        self.stats = stats if stats is not None else StatsCollector()
        self._num_sets = max(1, config.entries // config.assoc)
        self._tag_mask = (1 << config.tag_bits) - 1
        # set index -> OrderedDict {tag: LiveOutInfo} in LRU order.
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self._num_sets)]

    def _locate(self, key: FragmentKey) -> Tuple[int, int]:
        """(set index, tag) for a fragment key."""
        hashed = key.hash_id()
        hashed ^= hashed >> 17
        return hashed % self._num_sets, (hashed // self._num_sets) & self._tag_mask

    def predict(self, key: FragmentKey) -> Optional[LiveOutInfo]:
        """Predicted live-outs for *key*, or None on a table miss."""
        index, tag = self._locate(key)
        cache_set = self._sets[index]
        info = cache_set.get(tag)
        if info is None:
            self.stats.add("liveout.table_misses")
            return None
        cache_set.move_to_end(tag)
        self.stats.add("liveout.table_hits")
        return info

    def train(self, key: FragmentKey, info: LiveOutInfo) -> None:
        """Record the observed live-outs of a committed fragment."""
        index, tag = self._locate(key)
        cache_set = self._sets[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
        elif len(cache_set) >= self.config.assoc:
            cache_set.popitem(last=False)
            self.stats.add("liveout.evictions")
        cache_set[tag] = info

    def adopt_state(self, donor: "LiveOutPredictor") -> None:
        """Clone *donor*'s trained table (entries are immutable
        :class:`LiveOutInfo` tuples; LRU order is preserved)."""
        if donor.config != self.config:
            raise ValueError("live-out config mismatch in adopt_state")
        self._sets = [OrderedDict(s) for s in donor._sets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (f"LiveOutPredictor({cfg.entries} entries, {cfg.assoc}-way, "
                f"{cfg.tag_bits}-bit tags)")
