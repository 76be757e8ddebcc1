"""The cycle loop's batched structure-of-arrays pipeline state.

Most per-instruction facts the pipeline needs are the same for every
dynamic instance of a static fragment.  The cycle loop hoists everything
that is a pure function of the *static* fragment into a
:class:`FragMeta` built once per
:class:`~repro.frontend.fragments.StaticFragment`, and reads the oracle
stream as columns, so tagging a fragment is a single slice comparison
of PC arrays, rename builds uops from per-position arrays and commit
releases window slots once per batch.

Index linkage invariants (see ``docs/DATA_LAYOUT.md`` for the full
memory model):

* ``SoAState.oracle_pcs[i]`` is the PC of NOP-free oracle entry ``i``
  — the ``pc`` column of ``Processor._oracle``; positions never move.
* ``FragMeta.pcs/srcs/dest/decoded[p]`` describe static instruction
  position ``p`` of one fragment; a fragment's dynamic uop at position
  ``p`` is built from exactly these entries.
* Metadata is cached per *canonical fragment key*.  The key records the
  actual direction of every conditional branch inside the fragment
  (fallback-supplied bits included — see ``walk_fragment``), so for a
  fixed program it fully determines the walk path: two static fragments
  with equal keys carry the same ``Instruction`` objects position for
  position, and sharing one metadata entry between them is exact.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.core.uop import DecodeCache, DecodedUop
from repro.emulator.stream import ColumnStream, address_column
from repro.frontend.control import WalkMemos
from repro.frontend.fragments import FragmentKey, StaticFragment


class FragMeta:
    """Per-static-fragment arrays the batched loops index by position."""

    __slots__ = ("insts", "pcs", "srcs", "dest", "decoded", "src_plan",
                 "chunks")

    def __init__(self, static: StaticFragment, cache: DecodeCache):
        #: The fragment's (non-NOP) instructions, aliased for the rename
        #: hot loop.
        self.insts = static.instructions
        # One fused pass builds every per-position array (pcs, decoded,
        # srcs, dest, src_plan): metadata construction is pure loop
        # overhead, so it is paid in one pass.
        lookup = cache.lookup
        #: PC per position — compared against ``oracle_pcs`` as a slice.
        pcs: List[int] = []
        #: One shared :class:`DecodedUop` per position.
        decoded: List[DecodedUop] = []
        #: Dependence-creating source registers per position.
        srcs_l: List[Tuple[int, ...]] = []
        #: Destination register per position (None = no rename effect).
        dest_l: List[Optional[int]] = []
        #: Per-position source-resolution plan for the parallel renamer.
        #: Which map a source register resolves against is a pure
        #: function of the static fragment (rename runs positions in
        #: order, so the nearest earlier internal write — if any — always
        #: wins over the incoming map).  Entry ``q >= 0``: the producer
        #: is this fragment's own uop at position ``q``.  Entry
        #: ``-(reg + 1)``: the source reads register ``reg`` from the
        #: fragment's incoming map (or architectural state when absent).
        plan: List[Tuple[int, ...]] = []
        last_write: Dict[int, int] = {}
        lw_get = last_write.get
        for p, inst in enumerate(static.instructions):
            addr = inst.addr
            pcs.append(addr)
            d = lookup(addr, inst)
            decoded.append(d)
            srcs = d.srcs
            srcs_l.append(srcs)
            dest = d.dest
            dest_l.append(dest)
            plan.append(tuple(lw_get(r, -(r + 1)) for r in srcs))
            if dest is not None:
                last_write[dest] = p
        #: An address array, like the oracle's ``pc`` column, so the
        #: tagging compare takes the arrays' fast path.
        self.pcs = address_column(pcs)
        self.decoded = decoded
        self.srcs = srcs_l
        self.dest = dest_l
        self.src_plan = plan
        #: Per-cycle fetch chunk tables, lazily built by the sequencer:
        #: ``(width, line_shift) -> {start_cursor: (end_cursor, fetched)}``.
        #: A sequencer cycle's stopping point (width exhausted, line
        #: boundary, taken transfer) is a pure function of the static
        #: fragment, so the walk is computed once per geometry.
        self.chunks: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}


class SharedStream:
    """Config-independent per-stream state of every processor on a stream.

    Everything here is a pure function of the stream (plus, for the
    per-fragment state, the fragment config), so one instance backs
    every ``Processor`` on one stream without perturbing result
    identity.  :meth:`of` builds it on a stream's first run and keeps it
    on the stream (``ColumnStream.run_state``), so it lives as long as
    the stream: every later run on that stream object — a co-sim
    sibling, a sampled window, the next serial ``run_simulation`` —
    starts with its memos warm, and it dies with the stream when the
    prep caches drop that (:func:`~repro.sampling.prep.clear_prep_caches`,
    :func:`~repro.sampling.prep.forget_benchmark`).  It refers to
    nothing that refers back to it, so it needs no cyclic collection.
    It holds:

    * the NOP-free oracle (``Processor._oracle``), a
      :class:`~repro.emulator.stream.ColumnStream` whose columns the
      processor reads by index, and ``raw_index``, the raw-stream
      position of each of its entries (sampled gaps replay raw ranges,
      NOPs included);
    * one :class:`~repro.core.uop.DecodeCache` — decode is pure per PC
      and instruction identity, and its hit/miss counters never reach
      :class:`~repro.core.simulation.SimulationResult`;
    * one :class:`FragMeta` dict and one
      :class:`~repro.frontend.control.WalkMemos` *per fragment config* —
      canonical keys are only exact within one carving geometry.  Every
      processor's front-end control walks through the same memos, so
      a fragment is walked once per stream, not once per run, sibling
      or sampled window.
    """

    # A weak reference observes the lifetime (tests/test_column_stream.py).
    __slots__ = ("decode_cache", "oracle", "raw_index", "_by_fragment",
                 "__weakref__")

    def __init__(self, stream: ColumnStream):
        self.decode_cache = DecodeCache()
        #: The NOP-free stream (NOPs are eliminated before they reach
        #: any pipeline statistic) and the raw position of each entry.
        self.oracle, self.raw_index = stream.without_nops()
        self._by_fragment: Dict[
            object, Tuple[Dict[FragmentKey, FragMeta], WalkMemos]] = {}

    @classmethod
    def of(cls, stream: ColumnStream) -> "SharedStream":
        """*stream*'s shared state: built on first use, then kept on
        the stream for its lifetime."""
        shared = stream.run_state
        if shared is None:
            shared = stream.run_state = cls(stream)
        return shared

    def _for_fragment(self, fragment_config: object
                      ) -> Tuple[Dict[FragmentKey, FragMeta], WalkMemos]:
        state = self._by_fragment.get(fragment_config)
        if state is None:
            state = self._by_fragment[fragment_config] = ({}, WalkMemos())
        return state

    def meta_for(self, fragment_config: object) -> Dict[FragmentKey, FragMeta]:
        """The shared metadata dict for one carving geometry."""
        return self._for_fragment(fragment_config)[0]

    def walk_memos(self, fragment_config: object) -> WalkMemos:
        """The shared fragment-walk memos for one carving geometry."""
        return self._for_fragment(fragment_config)[1]


class SoAState:
    """One :class:`Processor`'s view of its stream's batched state."""

    __slots__ = ("oracle_pcs", "_cache", "_meta")

    #: Metadata entries kept before the cache is wiped (a safety bound —
    #: real workloads revisit far fewer distinct fragment keys).
    _META_CAP = 8192

    def __init__(self, shared: SharedStream, fragment_config: object):
        # One PC column and FragMeta dict per stream and fragment config,
        # shared by every processor on the stream: both are pure per
        # (stream, fragment config, decode cache), so sharing is exact.
        #: PC of every NOP-free oracle entry, for slice comparison.
        self.oracle_pcs: array = shared.oracle.pc
        self._cache = shared.decode_cache
        self._meta: Dict[FragmentKey, FragMeta] = shared.meta_for(
            fragment_config)

    def meta_for(self, static: StaticFragment) -> FragMeta:
        """The (cached) batched metadata for *static*.

        Keyed by the canonical fragment key rather than object identity:
        walks that consulted the direction fallback produce fresh
        ``StaticFragment`` objects every time (the walk cache cannot memo
        them), but their canonical keys — and therefore instructions —
        are identical, so the metadata is shared."""
        meta = self._meta.get(static.key)
        if meta is not None:
            return meta
        if len(self._meta) >= self._META_CAP:
            self._meta.clear()
        meta = FragMeta(static, self._cache)
        self._meta[static.key] = meta
        return meta
