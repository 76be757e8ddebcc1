"""Static program representation.

A :class:`Program` is the unit the emulator and the timing model both
consume: a contiguous text segment of :class:`~repro.isa.instructions.Instruction`
objects plus an initialised data segment and a symbol table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import ReproError
from repro.isa.instructions import INSTRUCTION_BYTES, Instruction

#: Default base address of the text segment.
TEXT_BASE = 0x1000
#: Default base address of the data segment.
DATA_BASE = 0x100000
#: Size in bytes of a data word (``ld``/``st`` granularity).
WORD_BYTES = 8
#: Default initial stack pointer (grows down, far above the data segment).
STACK_BASE = 0x4000000


@dataclass
class Program:
    """An assembled program.

    Attributes:
        instructions: text segment in address order.
        text_base: byte address of ``instructions[0]``.
        data: initial contents of the data segment, ``{byte_addr: word}``.
        data_base: first byte address of the data segment.
        data_size: size of the data segment in bytes.
        symbols: label -> byte address.
        entry: address execution starts at.
        name: human-readable program name (used in reports).
    """

    instructions: List[Instruction]
    text_base: int = TEXT_BASE
    data: Dict[int, int] = field(default_factory=dict)
    data_base: int = DATA_BASE
    data_size: int = 0
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: Optional[int] = None
    name: str = "program"

    def __post_init__(self) -> None:
        if self.entry is None:
            self.entry = self.symbols.get("main", self.text_base)
        # Hot-path constants: fetch/emulation translate PCs to
        # instructions millions of times per run, so the bounds and the
        # address->instruction map are precomputed here rather than
        # re-derived per lookup.  The map is keyed by each instruction's
        # own ``addr`` int where that is its slot's address, so a placed
        # program holds one int per address, not two.
        self._text_end = (self.text_base
                          + len(self.instructions) * INSTRUCTION_BYTES)
        self._by_addr = {
            (inst.addr if inst.addr == slot else slot): inst
            for slot, inst in zip(range(self.text_base, self._text_end,
                                        INSTRUCTION_BYTES),
                                  self.instructions)
        }

    def __reduce__(self):
        # Pickled as its constructor arguments: a load rebuilds the
        # address map, keyed by the loaded instructions' own ints.
        return (Program, (self.instructions, self.text_base, self.data,
                          self.data_base, self.data_size, self.symbols,
                          self.entry, self.name))

    # -- text segment ----------------------------------------------------

    @property
    def text_size(self) -> int:
        """Size of the text segment in bytes (the code footprint)."""
        return len(self.instructions) * INSTRUCTION_BYTES

    @property
    def text_end(self) -> int:
        """First byte address past the text segment."""
        return self._text_end

    def contains_addr(self, addr: int) -> bool:
        """True if *addr* falls inside the text segment."""
        return self.text_base <= addr < self._text_end

    def index_of(self, addr: int) -> int:
        """Index into ``instructions`` for byte address *addr*."""
        if not self.contains_addr(addr):
            raise ReproError(f"PC {addr:#x} outside text segment "
                             f"[{self.text_base:#x}, {self._text_end:#x})")
        offset = addr - self.text_base
        if offset % INSTRUCTION_BYTES:
            raise ReproError(f"unaligned PC {addr:#x}")
        return offset // INSTRUCTION_BYTES

    def inst_at(self, addr: int) -> Instruction:
        """The instruction stored at byte address *addr*."""
        inst = self._by_addr.get(addr)
        if inst is None:
            self.index_of(addr)  # raises the precise diagnostic
            raise ReproError(f"unaligned PC {addr:#x}")  # pragma: no cover
        return inst

    def insts_at(self, addrs: Iterable[int]) -> Iterator[Instruction]:
        """:meth:`inst_at` over *addrs*, in one C-level pass.  For
        addresses already known to hold instructions (a checked stream's
        PCs): any other raises ``KeyError``."""
        return map(self._by_addr.__getitem__, addrs)

    def iter_from(self, addr: int) -> Iterator[Instruction]:
        """Iterate instructions in static order starting at *addr*."""
        idx = self.index_of(addr)
        return iter(self.instructions[idx:])

    # -- symbols ---------------------------------------------------------

    def address_of(self, label: str) -> int:
        """Address of *label*; raises ReproError when unknown."""
        try:
            return self.symbols[label]
        except KeyError:
            raise ReproError(f"unknown symbol {label!r}") from None

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Program({self.name!r}, {len(self.instructions)} insts, "
                f"text={self.text_size}B, data={self.data_size}B)")


def link(instructions: List[Instruction], text_base: int = TEXT_BASE) -> List[Instruction]:
    """Assign addresses to a list of instructions.

    Returns a new list whose elements carry their final ``addr``.  Direct
    control-transfer targets are expected to already be absolute addresses.
    """
    placed = []
    addr = text_base
    for inst in instructions:
        placed.append(Instruction(
            opcode=inst.opcode, rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2,
            imm=inst.imm, target=inst.target, addr=addr,
        ))
        addr += INSTRUCTION_BYTES
    return placed
