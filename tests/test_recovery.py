"""Tests for control-misprediction recovery and speculation bookkeeping.

These drive the full processor on hand-built programs whose control flow
forces specific recovery scenarios, then check architectural invariants.
"""

from repro import frontend_config, run_simulation
from repro.core.processor import Processor
from repro.core.uop import UopState
from repro.emulator.machine import execute
from repro.isa.assembler import assemble


def run_program(source, config_name="pf-2x8w", n=3000):
    program = assemble(source)
    oracle = execute(program, n).stream
    processor = Processor(frontend_config(config_name), program, oracle)
    processor.run()
    return processor, oracle


# A loop whose exit is systematically mispredicted at first (cold), and a
# data-dependent branch pattern inside.
ALTERNATING = """
main:
    li   s0, 200
loop:
    andi t0, s0, 1
    beq  t0, zero, even
    addi t1, t1, 1
    j    join
even:
    addi t2, t2, 1
join:
    addi s0, s0, -1
    bne  s0, zero, loop
    halt
"""


class TestRecovery:
    def test_alternating_branches_commit_exactly(self):
        processor, oracle = run_program(ALTERNATING)
        assert processor.finished
        non_nop = sum(1 for r in oracle if not r.inst.is_nop)
        assert processor.committed == non_nop

    def test_recoveries_occur_and_resolve(self):
        processor, _ = run_program(ALTERNATING)
        assert processor.stats.get("frontend.recoveries") > 0
        # The run completed; anything left in flight is harmless
        # speculation past the stream end (e.g. past the final halt).
        assert processor.finished

    def test_no_wrong_path_uop_survives(self):
        processor, _ = run_program(ALTERNATING, config_name="pr-2x8w")
        assert processor.finished
        # All squashed uops stay squashed; committed count matches stats.
        assert processor.stats.get("commit.insts") == processor.committed

    def test_indirect_stall_resolution(self):
        """A never-before-seen indirect target must resolve via the
        execute-time redirect path, not hang fetch."""
        source = """
        main:
            la   t0, target
            jr   t0
            nop
        target:
            li   t1, 5
            out  t1
            halt
        """
        processor, oracle = run_program(source, n=100)
        assert processor.finished
        non_nop = sum(1 for r in oracle if not r.inst.is_nop)
        assert processor.committed == non_nop

    def test_deep_call_chain(self):
        """Nested calls/returns exercise RAS checkpointing under
        speculation."""
        source = """
        main:
            li   s1, 40
        again:
            call a
            addi s1, s1, -1
            bne  s1, zero, again
            halt
        a:
            addi sp, sp, -8
            st   ra, 0(sp)
            call b
            ld   ra, 0(sp)
            addi sp, sp, 8
            ret
        b:
            addi sp, sp, -8
            st   ra, 0(sp)
            call c
            ld   ra, 0(sp)
            addi sp, sp, 8
            ret
        c:
            add  t0, t0, t1
            ret
        """
        processor, oracle = run_program(source, n=2000)
        assert processor.finished
        # Returns should be nearly perfectly predicted via the RAS.
        recoveries = processor.stats.get("frontend.mispredict_return")
        assert recoveries <= 2

    def test_fragment_truncation_state(self):
        """After recovery, the truncated source fragment must look
        architecturally consistent."""
        processor, _ = run_program(ALTERNATING)
        # Every detected misprediction either recovered or was superseded
        # by an older recovery; recoveries can never exceed detections.
        assert 0 < processor.stats.get("frontend.recoveries") <= \
            processor.stats.get("frontend.control_mispredicts")

    def test_squashed_uops_marked(self):
        program = assemble(ALTERNATING)
        oracle = execute(program, 1500).stream
        processor = Processor(frontend_config("pf-4x4w"), program, oracle)
        squashed_seen = []
        for _ in range(400):
            if processor.finished:
                break
            processor.step()
            for fragment in processor.fragments:
                squashed_seen.extend(
                    u for u in fragment.uops
                    if u.state is UopState.SQUASHED)
        # Squashed uops may transiently appear in truncated fragments'
        # lists only before pruning; fragments in the live list must not
        # expose squashed uops.
        assert not squashed_seen


class TestLiveoutSquashReadyHeap:
    """A live-out squash re-renames younger fragments under their old
    uop seqs.  A squashed uop left in the ready heap used to meet its
    re-renamed twin there, and the heap's tie-break compared the two
    uops (``TypeError``)."""

    def test_reused_seq_does_not_crash_issue(self):
        import dataclasses

        from repro.experiments.runner import SweepJob
        from repro.workloads import suite
        from repro.workloads.generator import generate_program

        spec = suite.get_spec("vortex")
        program = generate_program(
            dataclasses.replace(spec, seed=spec.seed + 5000))
        config = SweepJob("pr-2x8w", "vortex", 15000,
                          total_l1_storage=32 * 1024).build_config()
        result = run_simulation(config, program, max_instructions=15000)
        assert result.counter("rename.liveout_squashes") > 0
        assert not result.timed_out
