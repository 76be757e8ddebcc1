"""Synthetic benchmark generator.

Generates *real programs* in the repro ISA from a :class:`WorkloadSpec`:
a set of functions whose bodies are built from parameterised segments
(straight-line ALU runs, if/else diamonds, counted loops, jump-table
switches, calls, memory runs, rare FP runs), plus a ``main`` dispatcher
that drives execution through an in-program linear congruential generator.
Because the LCG lives *inside* the generated program, control flow is
data-dependent and deterministic — re-running the same program yields the
same dynamic instruction stream.

Register conventions inside generated code:

* ``s7`` — LCG state, ``s6`` — LCG multiplier (reserved globally);
* ``s0`` — inner-loop counter (callee-saved when used);
* ``t0``–``t7`` — scratch, never live across calls;
* ``ra``/``sp`` — standard link/stack discipline.
"""

from __future__ import annotations

import random
from typing import List

from repro.emulator.stream import gc_paused
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.workloads.characteristics import WorkloadSpec

#: 32-bit LCG constants (numerical recipes).
_LCG_MUL = 1103515245
_LCG_ADD = 12345

_ALU_OPS = ("add", "sub", "and", "or", "xor")


class _AsmBuilder:
    """Accumulates assembly lines with label management."""

    def __init__(self) -> None:
        self.text: List[str] = ["    .text"]
        self.data: List[str] = ["    .data"]
        self._label_counter = 0

    def label(self, prefix: str) -> str:
        self._label_counter += 1
        return f"{prefix}_{self._label_counter}"

    def emit(self, line: str) -> None:
        self.text.append(f"    {line}")

    def emit_label(self, label: str) -> None:
        self.text.append(f"{label}:")

    def emit_data(self, line: str) -> None:
        self.data.append(f"    {line}")

    def emit_data_label(self, label: str) -> None:
        self.data.append(f"{label}:")

    def source(self) -> str:
        return "\n".join(self.text + self.data) + "\n"


def _pow2_floor(value: int) -> int:
    return 1 << (max(1, value).bit_length() - 1)


class ProgramGenerator:
    """Generates one synthetic program from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.asm = _AsmBuilder()
        self._array_words = _pow2_floor(spec.array_words)
        # Functions share a bounded pool of arrays so huge per-benchmark
        # working sets don't multiply by the function count.
        self._num_arrays = min(spec.num_functions, 16)

    # -- top level ---------------------------------------------------------

    def generate_source(self) -> str:
        """Emit the full assembly source for the workload."""
        self._emit_main()
        for index in range(self.spec.num_functions):
            self._emit_function(index)
        self._emit_arrays()
        return self.asm.source()

    def generate(self) -> Program:
        """Generate and assemble the workload."""
        return assemble(self.generate_source(), name=self.spec.name)

    # -- main dispatcher ------------------------------------------------------

    def _dispatch_schedule(self) -> List[int]:
        """The cyclic function-call schedule driven by ``main``.

        One full permutation of the hot set guarantees every hot function
        runs each period (cyclically re-referencing the whole hot code
        footprint — the I-cache capacity pressure Figure 9 measures); the
        remaining slots skew toward the hottest functions, with occasional
        cold-code excursions.
        """
        spec = self.spec
        hot_set = list(range(spec.hot_functions))
        sweep = hot_set[:]
        self.rng.shuffle(sweep)
        # Interleave draws from geometrically-sized hot tiers between the
        # sweep elements so reuse distances span multiple scales — small
        # tiers recur within a few calls, larger tiers within tens, the
        # full sweep once per period.  A pure cyclic sweep is a worst-case
        # LRU pattern whose miss rate falls off an unrealistic cliff at
        # cache size == footprint; real programs' reuse-distance profiles
        # are smooth, and so are their Figure 9 curves.
        tiers = [hot_set[:max(1, spec.hot_functions // divisor)]
                 for divisor in (64, 16, 4, 2)]
        schedule: List[int] = []
        for target in sweep:
            schedule.append(target)
            for _ in range(2):
                roll = self.rng.random()
                if (roll < 0.04
                        and spec.hot_functions < spec.num_functions):
                    schedule.append(self.rng.randrange(
                        spec.hot_functions, spec.num_functions))
                elif roll < 0.22:
                    schedule.append(self.rng.choice(tiers[0]))
                elif roll < 0.40:
                    schedule.append(self.rng.choice(tiers[1]))
                elif roll < 0.55:
                    schedule.append(self.rng.choice(tiers[2]))
                elif roll < 0.68:
                    schedule.append(self.rng.choice(tiers[3]))
        return schedule

    def _emit_main(self) -> None:
        spec, asm = self.spec, self.asm
        seed32 = (spec.seed * 2654435761 + 1) & 0x7FFFFFFF

        # The dispatcher is a loop over *direct* calls: the schedule is
        # static code, as in a real program's main loop, so the hard
        # control flow lives where it should — in the functions' diamonds,
        # loops and switch statements — not in an artificial indirect
        # dispatch.  The LCG advances before every call so the interior
        # data-dependent branches vary between invocations.
        asm.emit_label("main")
        asm.emit(f"li   s6, {_LCG_MUL}")
        asm.emit(f"li   s7, {seed32 or 1}")
        asm.emit_label("outer_loop")
        for target in self._dispatch_schedule():
            self._emit_rng_advance()
            asm.emit(f"jal  func_{target}")
        asm.emit("j    outer_loop")
        asm.emit("halt")

    # -- functions ----------------------------------------------------------

    def _emit_function(self, index: int) -> None:
        spec, asm, rng = self.spec, self.asm, self.rng
        lo, hi = spec.segments_per_function
        num_segments = rng.randint(lo, hi)
        segment_kinds = [self._pick_segment_kind() for _ in range(num_segments)]
        has_calls = ("call" in segment_kinds
                     and index + 1 < spec.num_functions)
        has_loops = "loop" in segment_kinds

        asm.emit_label(f"func_{index}")
        frame = 0
        if has_calls or has_loops:
            frame = 16
            asm.emit(f"addi sp, sp, -{frame}")
            if has_calls:
                asm.emit("st   ra, 0(sp)")
            if has_loops:
                asm.emit("st   s0, 8(sp)")

        for kind in segment_kinds:
            self._emit_segment(kind, index)
            if rng.random() < spec.nop_prob:
                asm.emit("nop")

        if frame:
            if has_calls:
                asm.emit("ld   ra, 0(sp)")
            if has_loops:
                asm.emit("ld   s0, 8(sp)")
            asm.emit(f"addi sp, sp, {frame}")
        asm.emit("ret")

    def _pick_segment_kind(self) -> str:
        spec, point = self.spec, self.rng.random()
        cumulative = 0.0
        for kind, prob in (("diamond", spec.diamond_prob),
                           ("loop", spec.loop_prob),
                           ("switch", spec.switch_prob),
                           ("call", spec.call_prob),
                           ("mem", spec.mem_prob),
                           ("fp", spec.fp_prob)):
            cumulative += prob
            if point < cumulative:
                return kind
        return "alu"

    def _emit_segment(self, kind: str, func_index: int) -> None:
        if kind == "alu":
            self._emit_alu_run()
        elif kind == "diamond":
            self._emit_diamond()
        elif kind == "loop":
            self._emit_loop(func_index)
        elif kind == "switch":
            self._emit_switch()
        elif kind == "call":
            self._emit_call(func_index)
        elif kind == "mem":
            self._emit_mem_run(func_index)
        elif kind == "fp":
            self._emit_fp_run()
        else:  # pragma: no cover - exhaustive
            raise AssertionError(kind)

    # -- segment emitters --------------------------------------------------

    def _emit_rng_advance(self) -> None:
        asm = self.asm
        asm.emit("mul  s7, s7, s6")
        asm.emit(f"addi s7, s7, {_LCG_ADD}")
        asm.emit("slli s7, s7, 32")
        asm.emit("srli s7, s7, 32")

    def _emit_rng_bits(self, dest: str, mask: int) -> None:
        """Extract pseudo-random bits of ``s7`` into *dest* (mask <= 0x7FFF)."""
        shift = self.rng.randrange(0, 17)
        self.asm.emit(f"srli {dest}, s7, {shift}")
        self.asm.emit(f"andi {dest}, {dest}, {mask}")

    def _emit_alu_run(self, length: int = 0) -> None:
        rng, asm = self.rng, self.asm
        lo, hi = self.spec.block_len
        length = length or rng.randint(lo, hi)
        regs = ["t0", "t1", "t2", "t3", "t4"]
        for _ in range(length):
            choice = rng.random()
            rd = rng.choice(regs)
            rs1 = rng.choice(regs)
            if choice < 0.15:
                asm.emit(f"addi {rd}, {rs1}, {rng.randint(-128, 127)}")
            elif choice < 0.20:
                asm.emit(f"slli {rd}, {rs1}, {rng.randint(1, 7)}")
            elif choice < 0.24:
                asm.emit(f"srli {rd}, {rs1}, {rng.randint(1, 7)}")
            elif choice < 0.28:
                asm.emit(f"mul  {rd}, {rs1}, {rng.choice(regs)}")
            elif choice < 0.30:
                rs2 = rng.choice(regs)
                asm.emit(f"ori  {rs2}, {rs2}, 1")
                asm.emit(f"div  {rd}, {rs1}, {rs2}")
            else:
                op = rng.choice(_ALU_OPS)
                asm.emit(f"{op:4} {rd}, {rs1}, {rng.choice(regs)}")

    def _emit_diamond(self) -> None:
        spec, rng, asm = self.spec, self.rng, self.asm
        else_label = asm.label("else")
        join_label = asm.label("join")
        if rng.random() < spec.biased_branch_fraction:
            threshold = rng.choice((1, 15))  # strongly biased (~6% flip)
        else:
            threshold = rng.choice((4, 12))  # data-dependent (~25% flip)
        self._emit_rng_bits("t6", 15)
        asm.emit(f"slti t5, t6, {threshold}")
        asm.emit(f"beq  t5, zero, {else_label}")
        self._emit_alu_run(rng.randint(1, 4))
        asm.emit(f"j    {join_label}")
        asm.emit_label(else_label)
        self._emit_alu_run(rng.randint(1, 4))
        asm.emit_label(join_label)

    def _emit_loop(self, func_index: int) -> None:
        rng, asm = self.rng, self.asm
        lo, hi = self.spec.loop_trip_range
        trips = rng.randint(lo, hi)
        loop_label = asm.label("loop")
        asm.emit(f"li   s0, {trips}")
        asm.emit_label(loop_label)
        body = rng.random()
        if body < 0.5:
            self._emit_alu_run(rng.randint(2, 5))
        else:
            self._emit_mem_run(func_index, sequential=True)
        asm.emit("addi s0, s0, -1")
        asm.emit(f"bne  s0, zero, {loop_label}")

    def _emit_switch(self) -> None:
        spec, rng, asm = self.spec, self.rng, self.asm
        cases = spec.switch_cases
        table_label = asm.label("swtab")
        join_label = asm.label("swjoin")
        case_labels = [asm.label("case") for _ in range(cases)]

        self._emit_rng_bits("t6", cases - 1)
        asm.emit("slli t6, t6, 3")
        asm.emit(f"la   t5, {table_label}")
        asm.emit("add  t5, t5, t6")
        asm.emit("ld   t5, 0(t5)")
        asm.emit("jr   t5")
        for label in case_labels:
            asm.emit_label(label)
            self._emit_alu_run(rng.randint(2, 6))
            asm.emit(f"j    {join_label}")
        asm.emit_label(join_label)

        # Skew the table toward a dominant case, as real switch statements
        # are: a uniform table would make every switch an unpredictable
        # indirect branch, far harder than SPEC code behaves.
        weights = [1.0 / (rank + 1) ** 2 for rank in range(cases)]
        asm.emit_data_label(table_label)
        for label in rng.choices(case_labels, weights=weights, k=cases):
            asm.emit_data(f".word {label}")

    def _emit_call(self, func_index: int) -> None:
        spec, rng = self.spec, self.rng
        first = func_index + 1
        last = min(func_index + spec.call_span, spec.num_functions - 1)
        if first > last:
            self._emit_alu_run()
            return
        self.asm.emit(f"jal  func_{rng.randint(first, last)}")

    def _emit_mem_run(self, func_index: int, sequential: bool = False) -> None:
        spec, rng, asm = self.spec, self.rng, self.asm
        array = f"array_{func_index % self._num_arrays}"
        if sequential or rng.random() >= spec.random_access_fraction:
            # Offsets must fit the 16-bit immediate; sequential runs stay
            # near the front of the array anyway (that's their point).
            base_word = rng.randrange(0, min(self._array_words - 8, 4000))
            offset = base_word * 8
            asm.emit(f"la   t4, {array}")
            for i in range(rng.randint(1, 3)):
                asm.emit(f"ld   t{i}, {offset + i * 8}(t4)")
            asm.emit("add  t0, t0, t1")
            if rng.random() < 0.5:
                asm.emit(f"st   t0, {offset}(t4)")
        else:
            mask = self._array_words - 1
            shift = rng.randrange(0, 13)
            asm.emit(f"srli t6, s7, {shift}")
            if mask <= 0x7FFF:
                asm.emit(f"andi t6, t6, {mask}")
            else:
                asm.emit(f"li   t5, {mask}")
                asm.emit("and  t6, t6, t5")
            asm.emit("slli t6, t6, 3")
            asm.emit(f"la   t4, {array}")
            asm.emit("add  t4, t4, t6")
            asm.emit("ld   t3, 0(t4)")
            asm.emit("add  t2, t2, t3")
            if rng.random() < 0.4:
                asm.emit("st   t2, 0(t4)")

    def _emit_fp_run(self) -> None:
        asm = self.asm
        asm.emit("fcvt f1, t0")
        asm.emit("fcvt f2, t1")
        asm.emit("fadd f3, f1, f2")
        asm.emit("fmul f4, f3, f3")
        asm.emit("fadd f4, f4, f1")

    # -- data ------------------------------------------------------------

    def _emit_arrays(self) -> None:
        for index in range(self._num_arrays):
            self.asm.emit_data_label(f"array_{index}")
            self.asm.emit_data(f".space {self._array_words * 8}")


def generate_program(spec: WorkloadSpec) -> Program:
    """Generate the synthetic program described by *spec*.

    Runs with the cyclic collector paused (:func:`gc_paused`): generation
    builds no reference cycle, and the collector's passes over the
    instructions already built would otherwise cost about a quarter of
    assembly time.
    """
    with gc_paused():
        return ProgramGenerator(spec).generate()
