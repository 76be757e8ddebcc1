"""In-flight micro-operations and the decoded-uop cache.

A :class:`MicroOp` is one dynamic instance of an instruction travelling
through the timing pipeline.  Dataflow is modelled by linking each source
operand to its *producer* (another MicroOp, or a
:class:`PlaceholderProducer` created by parallel rename's phase 1 for a
predicted live-out that has not been renamed yet).

The :class:`DecodeCache` maps each ``(pc, instruction)`` to an immutable
:class:`DecodedUop`: the dataflow view (zero-register-filtered sources
and destination) plus the functional-unit pool and latency-table key the
scheduler needs.  Recurring fragments — the overwhelmingly common case,
since fetch walks the same loops over and over — reuse the cached entry
instead of re-deriving this metadata for every dynamic instance, and
instructions with the same decoded form share one ``DecodedUop``: a
whole program has a few hundred forms.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple, Union

from repro.isa.instructions import Instruction, OpClass
from repro.isa.registers import ZERO_REG

#: OpClass -> functional-unit pool name (the Table 1 taxonomy; branches
#: and integer ALU ops share the integer adders, loads and stores the
#: load/store units).
FU_POOL: Dict[OpClass, str] = {
    OpClass.IALU: "ialu",
    OpClass.IMUL: "imul",
    OpClass.IDIV: "idiv",
    OpClass.FADD: "fadd",
    OpClass.FMUL: "fmul",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
    OpClass.BRANCH: "ialu",
    OpClass.JUMP: "ialu",
    OpClass.CALL: "ialu",
    OpClass.IJUMP: "ialu",
    OpClass.ICALL: "ialu",
    OpClass.RETURN: "ialu",
    OpClass.HALT: "ialu",
}

#: OpClass -> key into ``BackEndConfig.fu_latencies``.
LATENCY_KEY: Dict[OpClass, str] = {
    OpClass.IALU: "ialu",
    OpClass.IMUL: "imul",
    OpClass.IDIV: "idiv",
    OpClass.FADD: "fadd",
    OpClass.FMUL: "fmul",
    OpClass.LOAD: "load",
    OpClass.STORE: "store",
    OpClass.BRANCH: "branch",
    OpClass.JUMP: "branch",
    OpClass.CALL: "branch",
    OpClass.IJUMP: "branch",
    OpClass.ICALL: "branch",
    OpClass.RETURN: "branch",
    OpClass.HALT: "branch",
}


class DecodedUop:
    """Immutable decode/dependence metadata shared by every dynamic
    instance of the static instructions with one decoded form.

    Attributes:
        srcs: source architectural registers with ``r0`` filtered out —
            exactly the registers that create rename dependences.
        dest: destination architectural register, or ``None`` when the
            instruction writes nothing (or only ``r0``).
        pool: functional-unit pool name for issue arbitration.
        latency_key: key into the configured latency table.
    """

    __slots__ = ("srcs", "dest", "pool", "latency_key")

    def __init__(self, inst: Instruction):
        self.srcs: Tuple[int, ...] = tuple(
            r for r in inst.src_regs() if r != ZERO_REG)
        dest = inst.dest_reg()
        self.dest: Optional[int] = (dest if dest is not None
                                    and dest != ZERO_REG else None)
        self.pool: str = FU_POOL[inst.op_class]
        self.latency_key: str = LATENCY_KEY[inst.op_class]


class DecodeCache:
    """Bounded ``(pc, instruction) -> DecodedUop`` cache.

    One cache serves every run on one stream (it lives in the stream's
    :class:`~repro.perf.soa.SharedStream`).  Entries are stored under
    the PC with the instruction object kept alongside and verified by
    identity on every hit: hashing the PC (an int) is far cheaper than
    hashing the instruction's six compared fields, and the identity
    check keeps the mapping honest if a different instruction object is
    ever presented for the same address (self-modifying test programs).
    Entries of instructions with the same decoded form share one
    ``DecodedUop``, so the cache keeps a few hundred of them however
    many PCs it holds.

    Capacity bounds model the finite decoded-uop storage a hardware
    front-end would have; when the cache fills, the oldest entries are
    evicted FIFO (insertion order) in batches so eviction cost stays
    amortised.  Hits, misses and evictions are observable for tests and
    tuning.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries",
                 "_forms")

    #: Fraction of the cache evicted per overflow (amortised FIFO).
    _EVICT_FRACTION = 8

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: Dict[int, Tuple[Instruction, DecodedUop]] = {}
        #: ``(srcs, dest, pool, latency_key)`` -> the one shared
        #: ``DecodedUop`` of that form; never evicted.
        self._forms: Dict[Tuple, DecodedUop] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, pc: int, inst: Instruction) -> DecodedUop:
        """The decoded form of *inst* at *pc*, decoding on first use."""
        entry = self._entries.get(pc)
        if entry is not None and entry[0] is inst:
            self.hits += 1
            return entry[1]
        if entry is None and len(self._entries) >= self.capacity:
            drop = max(1, self.capacity // self._EVICT_FRACTION)
            for old in list(self._entries)[:drop]:
                del self._entries[old]
            self.evictions += drop
        self.misses += 1
        form = DecodedUop(inst)
        decoded = self._forms.setdefault(
            (form.srcs, form.dest, form.pool, form.latency_key), form)
        self._entries[pc] = (inst, decoded)
        return decoded


class UopState(enum.Enum):
    """Lifecycle of a renamed micro-op through the window."""
    RENAMED = "renamed"      # renamed, waiting to enter the window
    WAITING = "waiting"      # in window, sources not ready
    READY = "ready"          # in window, sources ready, waiting for issue
    EXECUTING = "executing"  # issued to a functional unit
    DONE = "done"            # result available
    COMMITTED = "committed"
    SQUASHED = "squashed"


class PlaceholderProducer:
    """Phase-1 token for a predicted live-out of a fragment.

    Younger fragments rename their cross-fragment sources to these tokens
    before the producing instruction itself has been renamed.  When the
    producer is renamed (phase 2) the token is *bound*; the consumer then
    tracks the real producer's completion.
    """

    __slots__ = ("arch_reg", "fragment_seq", "producer", "invalidated",
                 "consumers", "ready")

    def __init__(self, arch_reg: int, fragment_seq: int):
        self.arch_reg = arch_reg
        self.fragment_seq = fragment_seq
        #: The real producer once bound: a MicroOp, or another (older)
        #: placeholder when a cold fragment passes a mapping through.
        self.producer: Optional[object] = None
        self.invalidated = False
        #: Uops waiting on this mapping before the producer is known.
        self.consumers: List["MicroOp"] = []
        #: True when the mapping resolved to architectural (committed)
        #: state — the value is available immediately.
        self.ready = False

    def bind(self, producer: "MicroOp") -> None:
        """Attach the real producer; waiting consumers follow it now.

        Only valid while the producer has not completed; late bindings
        must go through ``OutOfOrderCore.bind_placeholder`` so waiting
        consumers are woken.
        """
        self.producer = producer
        if self.consumers:
            producer.consumers.extend(self.consumers)
            self.consumers = []

    @property
    def done(self) -> bool:
        """Ready only once resolved to architectural state or bound to a
        completed producer.  Iterative: pass-through chains can span many
        fragments for rarely-written registers."""
        node = self
        while isinstance(node, PlaceholderProducer):
            if node.ready:
                return True
            if node.producer is None:
                return False
            node = node.producer
        return node.state in (UopState.DONE, UopState.COMMITTED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "bound" if self.producer else "unbound"
        return (f"<Placeholder r{self.arch_reg} "
                f"frag={self.fragment_seq} {status}>")


Producer = Union["MicroOp", PlaceholderProducer]


class MicroOp:
    """One in-flight dynamic instruction.

    A correct-path uop is bound to its oracle entry by index
    (``oracle_idx``): the processor reads the entry's ``next_pc``,
    ``taken`` and ``ea`` from the oracle's columns.
    """

    __slots__ = (
        "seq", "inst", "pc", "fragment_seq", "position",
        "state", "sources", "complete_cycle", "renamed_cycle",
        "dispatch_ready_cycle", "consumers", "pending", "oracle_idx",
        "redirect_target", "issue_cycle", "commit_cycle", "decoded",
    )

    def __init__(self, seq: int, inst: Instruction, pc: int,
                 fragment_seq: int, position: int, decoded: DecodedUop,
                 oracle_idx: int = -1):
        self.seq = seq
        self.inst = inst
        self.pc = pc
        self.fragment_seq = fragment_seq
        #: Index of this uop within its fragment (0-based, non-NOP).
        self.position = position
        #: Decode metadata, shared by every instance of the static
        #: instruction (see :class:`DecodeCache`).
        self.decoded = decoded
        self.state = UopState.RENAMED
        #: Producers of each source operand (filled in by rename).
        self.sources: List[Producer] = []
        self.complete_cycle = -1
        self.renamed_cycle = -1
        self.dispatch_ready_cycle = -1
        #: Uops whose sources include this one (window wakeup links).
        self.consumers: List["MicroOp"] = []
        #: Number of source producers not yet complete (window state).
        self.pending = 0
        #: Position in the processor's NOP-free oracle stream, or -1 on
        #: the wrong path.
        self.oracle_idx = oracle_idx
        #: When set, completing this uop redirects fetch to this PC
        #: (control misprediction resolution).
        self.redirect_target: Optional[int] = None
        #: Lifecycle timestamps for tracing (set by the core/commit).
        self.issue_cycle = -1
        self.commit_cycle = -1

    # -- classification ----------------------------------------------------

    @property
    def on_correct_path(self) -> bool:
        """Whether this uop is bound to an oracle entry (correct path)."""
        return self.oracle_idx >= 0

    @property
    def op_class(self) -> OpClass:
        """Functional-unit class of the underlying instruction."""
        return self.inst.op_class

    @property
    def is_control(self) -> bool:
        """Whether the underlying instruction is a control transfer."""
        return self.inst.is_control

    def sources_ready(self) -> bool:
        """True when every source's producer has completed."""
        for producer in self.sources:
            if isinstance(producer, PlaceholderProducer):
                if not producer.done:
                    return False
            elif producer.state not in (UopState.DONE, UopState.COMMITTED):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "C" if self.on_correct_path else "W"
        return (f"<uop#{self.seq} {self.pc:#x} {self.inst.opcode.mnemonic} "
                f"{self.state.value} {path}>")
