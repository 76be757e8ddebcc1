"""The oracle stream as columns.

The functional emulator (:mod:`repro.emulator.machine`) produces the
*oracle stream*: the correct path the timing model checks fetch against
and redirects to after a misprediction resolves.  It is held as
columns, one entry per dynamic instruction, in a :class:`ColumnStream`:
addresses in unsigned arrays, flags in bytes, and nothing per
instruction that is not in a column.  The timing model reads the
columns by position.

A :class:`ColumnStream` is also a read-only sequence of
:class:`DynamicInstruction` records for callers that want one
instruction at a time: indexing and iteration build each record on
access and keep none.

:func:`encode_stream` and :func:`decode_stream` convert a stream to and
from :class:`PackedStream`, the form the on-disk stream bundles store
(see :mod:`repro.sampling.prep`); both only move column references.
"""

from __future__ import annotations

import gc
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import compress, count
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.isa.instructions import Instruction
from repro.isa.program import Program


class DynamicInstruction:
    """One dynamic execution of a static instruction: the record view of
    one :class:`ColumnStream` entry.

    Attributes:
        index: position in the dynamic stream (0-based).
        inst: the static :class:`Instruction` executed.
        pc: byte address of the instruction.
        next_pc: byte address of the dynamically-next instruction.
        taken: for control instructions, whether control transferred away
            from the fall-through path; ``False`` for everything else.
        ea: effective address for loads/stores, else ``None``.
    """

    __slots__ = ("index", "inst", "pc", "next_pc", "taken", "ea")

    def __init__(self, index: int, inst: Instruction, pc: int, next_pc: int,
                 taken: bool = False, ea: Optional[int] = None):
        self.index = index
        self.inst = inst
        self.pc = pc
        self.next_pc = next_pc
        self.taken = taken
        self.ea = ea

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = " taken" if self.taken else ""
        return f"<#{self.index} {self.pc:#x}: {self.inst}{flags}>"


#: ``TAKEN[entry]`` is a ``taken`` column entry (0 or 1) as the bool a
#: direction bit is; every reader of the column converts through it.
TAKEN = (False, True)


def address_column(values: Sequence[int]) -> array:
    """*values* as a 32-bit unsigned array when they all fit, else as a
    64-bit one, which holds every address the emulator produces (it
    wraps addresses to 64 bits)."""
    try:
        return array("I", values)
    except OverflowError:
        return array("Q", values)


class ColumnStream(Sequence):
    """A stream of dynamic instructions, held as columns.

    Entry *i* executed ``program.inst_at(pc[i])`` as dynamic instruction
    ``first + i``; the other columns give the rest of its record:

    * ``pc``, ``next_pc`` — addresses (:func:`address_column` arrays);
    * ``taken`` — bytes, 1 where control left the fall-through path;
    * ``ea`` — the effective address, 0 where ``has_ea`` is 0;
    * ``has_ea`` — bytes, 1 for loads and stores.

    As a sequence it reads like a list of :class:`DynamicInstruction`
    records, built on access: ``len``, indexing and iteration work as on
    a list, and a contiguous slice is a shorter :class:`ColumnStream`
    (its columns copied, its numbering kept).  Columns are never written
    after construction.

    ``liveouts`` is the live-out memo of the stream's carves (see
    :func:`~repro.predictors.liveout.memo_liveouts`): the warm walk and
    every commit carver on the stream share it, and so do its slices and
    its NOP-free derivative, since an entry is a pure function of the
    program.  ``run_state`` holds what the cycle loop derives from the
    stream (a :class:`~repro.perf.soa.SharedStream`: the NOP-free
    derivative, decode cache, fragment metadata and walk memos), built
    on first use and kept for the stream's lifetime, so every run on
    this stream object shares it; a slice is another stream, with its
    own.
    """

    __slots__ = ("program", "pc", "next_pc", "taken", "ea", "has_ea",
                 "first", "liveouts", "run_state")

    def __init__(self, program: Program, pc: array, next_pc: array,
                 taken: bytes, ea: array, has_ea: bytes, first: int = 0,
                 liveouts: Optional[Dict] = None):
        self.program = program
        self.pc = pc
        self.next_pc = next_pc
        self.taken = taken
        self.ea = ea
        self.has_ea = has_ea
        self.first = first
        self.liveouts: Dict = {} if liveouts is None else liveouts
        #: Set by :meth:`SharedStream.of <repro.perf.soa.SharedStream.of>`.
        self.run_state = None

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[DynamicInstruction, "ColumnStream"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self.pc))
            if step != 1:
                raise ValueError("a column stream slices contiguously")
            return ColumnStream(
                self.program, self.pc[start:stop], self.next_pc[start:stop],
                self.taken[start:stop], self.ea[start:stop],
                self.has_ea[start:stop], self.first + start, self.liveouts)
        if index < 0:
            index += len(self.pc)
        if not 0 <= index < len(self.pc):
            raise IndexError("stream index out of range")
        pc = self.pc[index]
        return DynamicInstruction(
            self.first + index, self.program.inst_at(pc), pc,
            self.next_pc[index], TAKEN[self.taken[index]],
            self.ea[index] if self.has_ea[index] else None)

    def __iter__(self) -> Iterator[DynamicInstruction]:
        eas = (ea if present else None
               for ea, present in zip(self.ea, self.has_ea))
        return map(DynamicInstruction, count(self.first),
                   self.program.insts_at(self.pc), self.pc, self.next_pc,
                   map(TAKEN.__getitem__, self.taken), eas)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnStream):
            return (self.program is other.program
                    and self.first == other.first
                    and self.columns() == other.columns())
        if isinstance(other, (list, tuple)):
            # Records are built on access and compare by identity, so
            # only an empty stream equals a list of them.
            return len(self.pc) == 0 and len(other) == 0
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def columns(self) -> Tuple[array, array, bytes, array, bytes]:
        """``(pc, next_pc, taken, ea, has_ea)``."""
        return (self.pc, self.next_pc, self.taken, self.ea, self.has_ea)

    def without_nops(self) -> Tuple["ColumnStream", array]:
        """The stream with its NOPs dropped, and the raw position of
        each entry it kept.

        NOPs never reach a pipeline statistic, so the timing model runs
        on the NOP-free stream; the position map takes a NOP-free index
        back to this stream, whose NOPs still touch the I-cache.  The
        NOP-free stream is numbered from 0 and shares this stream's
        program and live-out memo.  Each column is one C-level pass
        (``itertools.compress`` over a mask of the non-NOP entries).
        The stream's ``run_state`` builds the pair once and keeps it.
        """
        inst_at = self.program.inst_at
        not_nop = {pc: not inst_at(pc).is_nop for pc in set(self.pc)}
        keep = bytes(map(not_nop.__getitem__, self.pc))
        kept = array("I", compress(range(len(self.pc)), keep))
        return ColumnStream(
            self.program,
            array(self.pc.typecode, compress(self.pc, keep)),
            array(self.next_pc.typecode, compress(self.next_pc, keep)),
            bytes(compress(self.taken, keep)),
            array(self.ea.typecode, compress(self.ea, keep)),
            bytes(compress(self.has_ea, keep)),
            0, self.liveouts), kept

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnStream({len(self.pc)} insts from #{self.first} "
                f"of {self.program.name!r})")


class ExecutionResult:
    """Outcome of a functional-emulation run."""

    __slots__ = ("stream", "outputs", "halted", "instructions_executed")

    def __init__(self, stream: Sequence[DynamicInstruction],
                 outputs: List[int], halted: bool):
        self.stream = stream
        self.outputs = outputs
        self.halted = halted
        self.instructions_executed = len(stream)

    def __len__(self) -> int:
        return len(self.stream)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "halted" if self.halted else "truncated"
        return (f"ExecutionResult({len(self.stream)} insts, "
                f"{len(self.outputs)} outputs, {status})")


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector around code that builds no
    reference cycle.

    Program generation (:func:`repro.workloads.generator.generate_program`),
    emulation and every run of :func:`repro.perf.cosim.run_cosim` pause
    it: what they build is acyclic, so the collector's passes meanwhile
    free nothing and only re-walk long-lived objects.  Reference
    counting frees garbage as usual.  The caller's state is restored:
    the collector is re-enabled only if it was enabled on entry, also
    when the code raises.  The state is process-wide, so when threads
    pause it at once it is back on as soon as the thread that paused it
    first leaves.  Also usable as a decorator (``@gc_paused()``).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class PackedStream(NamedTuple):
    """An :class:`ExecutionResult` as the stream bundle stores it: the
    :class:`ColumnStream` columns, numbered from 0, plus the outputs and
    the halt flag."""

    pc: array
    next_pc: array
    taken: bytes
    ea: array
    has_ea: bytes
    outputs: List[int]
    halted: bool


def encode_stream(result: ExecutionResult) -> PackedStream:
    """*result*'s columns for a bundle; :func:`decode_stream` inverts it.

    The stream must be numbered from 0, as :meth:`Machine.run
    <repro.emulator.machine.Machine.run>` on a fresh machine numbers
    it.
    """
    stream = result.stream
    if stream.first != 0:
        raise ValueError("stream records are not numbered by position")
    return PackedStream(*stream.columns(), outputs=list(result.outputs),
                        halted=result.halted)


def decode_stream(program: Program, packed: PackedStream) -> ExecutionResult:
    """The stream :func:`encode_stream` packed, on *program*.

    Each record's ``inst`` is ``program.inst_at(pc)`` — *program*'s own
    instruction object, as in emulation, so decode-cache identity
    holds.  Raises ``ValueError`` when a column does not have the form
    :meth:`Machine.run <repro.emulator.machine.Machine.run>` gives it
    (an address column that is not an ``'I'`` or ``'Q'`` array, a flag
    column that is not bytes of 0 and 1) or the columns disagree in
    length, and :class:`~repro.errors.ReproError` when a PC is not an
    instruction address of *program*'s text segment.  The columns are
    then used as they are, so nothing read from disk reaches the timing
    model unchecked.
    """
    for name in ("pc", "next_pc", "ea"):
        column = getattr(packed, name)
        if not isinstance(column, array) or column.typecode not in "IQ":
            raise ValueError(f"stream column {name!r} is not an address "
                             f"array")
    for name in ("taken", "has_ea"):
        column = getattr(packed, name)
        if not isinstance(column, bytes) or column.translate(None, b"\0\1"):
            raise ValueError(f"stream column {name!r} is not bytes of "
                             f"0 and 1")
    columns = (packed.pc, packed.next_pc, packed.taken, packed.ea,
               packed.has_ea)
    if any(len(column) != len(packed.pc) for column in columns):
        raise ValueError("stream columns disagree in length")
    for pc in set(packed.pc):
        program.inst_at(pc)
    return ExecutionResult(ColumnStream(program, *columns),
                           list(packed.outputs), bool(packed.halted))
