"""Dynamic instruction stream records.

The functional emulator (:mod:`repro.emulator.machine`) produces a sequence
of :class:`DynamicInstruction` records — the *oracle stream*.  The timing
model consumes this stream as the definition of the correct execution path
and uses the per-record ``next_pc`` to redirect fetch after branch
mispredictions resolve.

:func:`encode_stream` and :func:`decode_stream` convert a stream to and
from :class:`PackedStream`, the columnar form the on-disk stream bundles
store (see :mod:`repro.sampling.prep`).
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

from repro.isa.instructions import Instruction
from repro.isa.program import Program


class DynamicInstruction:
    """One dynamic execution of a static instruction.

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


class ExecutionResult:
    """Outcome of a functional-emulation run."""

    __slots__ = ("stream", "outputs", "halted", "instructions_executed")

    def __init__(self, stream: List[DynamicInstruction], outputs: List[int],
                 halted: bool):
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
    stream builds (emulation, :func:`decode_stream`) and every run of
    :func:`repro.perf.cosim.run_cosim` pause it: what they build is
    acyclic, so the collector's passes meanwhile free nothing and only
    re-walk long-lived objects.  Reference counting frees garbage as
    usual.  The caller's state is restored: the collector is re-enabled
    only if it was enabled on entry, also when the code raises.  The
    state is process-wide, so when threads pause it at once it is back
    on as soon as the thread that paused it first leaves.  Also usable
    as a decorator (``@gc_paused()``).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class PackedStream(NamedTuple):
    """An :class:`ExecutionResult` as columns, one entry per record.

    The address columns are unsigned arrays (see :func:`_address_column`).
    ``inst`` is not stored: it is the program's instruction at ``pc``,
    and ``index`` is the record's position.
    """

    pc: array
    next_pc: array
    #: 1 where the record's ``taken`` is true, else 0.
    taken: bytes
    #: The effective address, 0 where ``has_ea`` is 0.
    ea: array
    #: 1 where the record has an effective address, 0 where it is None.
    has_ea: bytes
    outputs: List[int]
    halted: bool


def _address_column(values: List[int]) -> array:
    """*values* as a 32-bit unsigned array when they all fit, else as a
    64-bit one, which holds every address the emulator produces (it
    wraps addresses to 64 bits)."""
    try:
        return array("I", values)
    except OverflowError:
        return array("Q", values)


def encode_stream(result: ExecutionResult) -> PackedStream:
    """Pack *result* into columns; :func:`decode_stream` inverts it.

    The records must be numbered by position, as :meth:`Machine.run
    <repro.emulator.machine.Machine.run>` on a fresh machine numbers
    them.
    """
    stream = result.stream
    if stream and (stream[0].index != 0
                   or stream[-1].index != len(stream) - 1):
        raise ValueError("stream records are not numbered by position")
    return PackedStream(
        pc=_address_column([record.pc for record in stream]),
        next_pc=_address_column([record.next_pc for record in stream]),
        taken=bytes([record.taken for record in stream]),
        ea=_address_column([record.ea or 0 for record in stream]),
        has_ea=bytes([record.ea is not None for record in stream]),
        outputs=list(result.outputs),
        halted=result.halted)


def decode_stream(program: Program, packed: PackedStream) -> ExecutionResult:
    """Rebuild the stream :func:`encode_stream` packed, field for field.

    Each record's ``inst`` is ``program.inst_at(pc)`` — *program*'s own
    instruction object, as in emulation, so decode-cache identity
    holds.  Raises ``ValueError`` when the columns disagree in length and
    :class:`~repro.errors.ReproError` when a PC lies outside *program*'s
    text segment.
    """
    pcs = packed.pc
    count = len(pcs)
    columns = (packed.next_pc, packed.taken, packed.ea, packed.has_ea)
    if any(len(column) != count for column in columns):
        raise ValueError("stream columns disagree in length")
    with gc_paused():
        eas = [ea if present else None
               for ea, present in zip(packed.ea, packed.has_ea)]
        stream = build_records(program, 0, pcs, packed.next_pc,
                               map(bool, packed.taken), eas)
    return ExecutionResult(stream, list(packed.outputs), bool(packed.halted))


def build_records(program: Program, first: int, pcs: Sequence[int],
                  next_pcs: Iterable[int], taken: Iterable[bool],
                  eas: Iterable[Optional[int]]) -> List[DynamicInstruction]:
    """The records of a stream segment, built in one pass.

    Record *i* executed ``program.inst_at(pcs[i])`` as dynamic
    instruction ``first + i``; the other columns give its remaining
    fields.  Emulation (:meth:`Machine.run
    <repro.emulator.machine.Machine.run>`) and :func:`decode_stream`
    both build their records here.  Call it with the cyclic collector
    paused (:func:`gc_paused`): it allocates one object per record.
    """
    return list(map(DynamicInstruction, range(first, first + len(pcs)),
                    map(program.inst_at, pcs), pcs, next_pcs, taken, eas))
