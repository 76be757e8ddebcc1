"""Pipeline tracing: per-instruction lifecycle records and "pipeview"
rendering.

Collects the rename/dispatch/issue/complete/commit timestamps of every
*committed* instruction from a simulation and renders the classic
pipeline diagram — one row per instruction, one column per cycle:

.. code-block:: text

    seq     pc      instruction        cycles 100..140
    612     0x12a4  add  t0, t1, t2    R.DIEC
    613     0x12a8  ld   t3, 0(t0)     R.D..IE....C

Legend: ``R`` renamed, ``D`` entered the window (dispatched), ``I``
issued, ``E`` completed execution, ``C`` committed, ``.`` waiting.

This is a debugging/teaching tool, not a measurement path: it re-runs
the simulation with the processor's commit log enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.config import ProcessorConfig
from repro.core.simulation import run_simulation
from repro.core.uop import MicroOp
from repro.isa.disassembler import format_instruction
from repro.isa.program import Program


@dataclass
class UopTrace:
    """Lifecycle of one committed instruction."""

    seq: int
    pc: int
    text: str
    renamed: int
    dispatched: int
    issued: int
    completed: int
    committed: int

    @classmethod
    def from_uop(cls, uop: MicroOp) -> "UopTrace":
        """Snapshot one committed uop's pipeline timestamps."""
        return cls(seq=uop.seq, pc=uop.pc,
                   text=format_instruction(uop.inst),
                   renamed=uop.renamed_cycle,
                   dispatched=uop.dispatch_ready_cycle,
                   issued=uop.issue_cycle,
                   completed=uop.complete_cycle,
                   committed=uop.commit_cycle)


def trace_simulation(config: Union[str, ProcessorConfig],
                     benchmark: Union[str, Program],
                     max_instructions: int = 2000,
                     warm: bool = True) -> List[UopTrace]:
    """Run a full-detail simulation collecting the lifecycle of every
    committed uop (``run_simulation``'s *uop_log*)."""
    log: List[MicroOp] = []
    run_simulation(config, benchmark, max_instructions=max_instructions,
                   warm=warm, uop_log=log, sampling=False,
                   checkpoint_every=False)
    return [UopTrace.from_uop(uop) for uop in log]


def format_pipeview(traces: List[UopTrace], start: int = 0,
                    count: int = 32,
                    max_width: int = 72) -> str:
    """Render a window of the trace as a pipeline diagram."""
    window = traces[start:start + count]
    if not window:
        return "(empty trace window)"
    first_cycle = min(t.renamed for t in window)
    last_cycle = min(max(t.committed for t in window),
                     first_cycle + max_width - 1)

    lines = [f"cycles {first_cycle}..{last_cycle} "
             f"(R=rename D=dispatch I=issue E=execute-done C=commit)"]
    for t in window:
        row = []
        for cycle in range(first_cycle, last_cycle + 1):
            if cycle == t.renamed:
                mark = "R"
            elif cycle == t.dispatched:
                mark = "D"
            elif cycle == t.issued:
                mark = "I"
            elif cycle == t.completed:
                mark = "E"
            elif cycle == t.committed:
                mark = "C"
            elif t.renamed < cycle < t.committed:
                mark = "."
            else:
                mark = " "
            row.append(mark)
        lines.append(f"{t.pc:#08x}  {t.text:<24.24} |{''.join(row)}|")
    return "\n".join(lines)


def pipeline_summary(traces: List[UopTrace]) -> dict:
    """Aggregate latency statistics over a trace."""
    if not traces:
        return {}
    waits = [t.issued - t.dispatched for t in traces if t.issued >= 0]
    lifetimes = [t.committed - t.renamed for t in traces
                 if t.committed >= 0]
    return {
        "instructions": len(traces),
        "avg_wait_cycles": sum(waits) / len(waits) if waits else 0.0,
        "avg_lifetime_cycles": (sum(lifetimes) / len(lifetimes)
                                if lifetimes else 0.0),
        "max_lifetime_cycles": max(lifetimes) if lifetimes else 0,
    }
