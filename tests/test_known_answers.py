"""Known-answer kernels: steady-state timing derived from Table 1 by hand.

Each kernel is a hand-assembled loop run for N and for 2N iterations.
Warm-up, pipeline fill and drain are the same in both runs, so the
difference is N iterations of pure steady state and can be asserted
exactly against arithmetic on the Table 1 machine (16-wide issue,
1-cycle integer adds, 3-cycle integer multiplies, one 4-cycle FP
multiplier, 16-instruction fragments that end at a conditional branch
past position 8):

* a chain of 14 dependent ``add`` per iteration takes 14 cycles;
* a chain of 14 dependent ``mul`` takes 14 x 3 = 42 cycles;
* six independent ``fmul`` chains take 6 cycles, one per multiply on
  the single FP multiplier (latency alone would allow 4), with
  structural stalls counted;
* a loop that fits one fragment is served from its fragment buffer
  every time after the first (reuse rate 1.0);
* a register written in one fragment and read first thing in the next
  renames under PR without a live-out misprediction or squash once the
  live-out predictor is warm;
* three dependent load/add pairs whose loads share one set of the
  2-way L1D hit every time on 2 distinct lines and, under true LRU,
  miss every time on 3, each miss then costing exactly the L2 latency.

The loop counter (``addi t1``) and the closing ``bne`` ride along in
every kernel; they are independent of the measured chain.
"""

import pytest

from repro import frontend_config, run_simulation
from repro.frontend.fragments import walk_fragment
from repro.isa.assembler import assemble

#: Iterations of the shorter run; the longer runs twice as many.
N = 300


def loop(body, iterations, setup="", data=""):
    """A counted loop around *body* (assembly lines), ending in ``halt``,
    after *setup* lines and before a *data* segment."""
    return assemble(f"""
    main:
{setup}
        li   t1, {iterations}
    loop:
{body}
        addi t1, t1, -1
        bne  t1, zero, loop
    done:
        halt
{data}
    """, name="known_answer")


def steady_state(config, body, setup="", data=""):
    """Cycles per iteration and counter deltas over N steady iterations."""
    short, long = (run_simulation(config, loop(body, n, setup, data),
                                  max_instructions=100_000)
                   for n in (N, 2 * N))
    assert not short.timed_out and not long.timed_out
    deltas = {name: long.counter(name) - short.counter(name)
              for name in set(short.counters) | set(long.counters)}
    return (long.cycles - short.cycles) / N, deltas


def lines(*insts):
    return "\n".join(f"        {inst}" for inst in insts)


ADD_CHAIN = lines(*["add  t0, t0, t2"] * 14)
MUL_CHAIN = lines(*["mul  t0, t0, t2"] * 14)
FMUL_CHAINS = lines(*(f"fmul f{i}, f{i}, f7" for i in range(1, 7)))
ADDI_LOOP = lines("addi t0, t0, 1", "addi t2, t2, 1", "addi t3, t3, 1")

#: 18 instructions before the closing ``bne``.  The never-taken ``beq``
#: sits at position 10 of its fragment, past the conditional-branch
#: limit of 8, so every iteration is the same two fragments: positions
#: 0-9 and 10-18 (the ``bne`` at position 9 of the second).  ``t3`` is
#: written at position 8 and read at position 10: a RAW pair across the
#: fragment boundary.
RAW_ACROSS = lines(
    *["add  t0, t0, t2"] * 4,
    *["add  t4, t4, t2"] * 4,
    "add  t3, t0, t4",
    "beq  t1, zero, done",
    "add  t5, t3, t2",
    *["add  t6, t6, t5"] * 6,
)


#: Three dependent ``ld``->``add`` pairs.  The loaded words are zero, so
#: each ``add`` leaves its base register unchanged but makes the next
#: load's address wait for the previous load: the six operations form
#: one chain through the whole loop.
LOAD_PAIRS = lines(
    "ld   t3, 0(s0)",
    "add  s1, s1, t3",
    "ld   t3, 0(s1)",
    "add  s2, s2, t3",
    "ld   t3, 0(s2)",
    "add  s0, s0, t3",
)

#: Three buffers 32 KB apart: the first word of each falls in one set
#: of the 64 KB 2-way L1D, and in three different sets of the L2.
WAY_BUFFERS = """
        .data
    way_a:
        .space 32768
    way_b:
        .space 32768
    way_c:
        .space 8
"""


def load_pair_setup(third):
    """Point s0, s1 and s2 at way_a, way_b and *third*."""
    return lines("la   s0, way_a", "la   s1, way_b", f"la   s2, {third}")


def test_dependent_add_chain_runs_at_one_per_cycle():
    cpi, _ = steady_state("w16", ADD_CHAIN)
    assert cpi == 14.0


def test_dependent_mul_chain_runs_at_multiply_latency():
    cpi, _ = steady_state("w16", MUL_CHAIN)
    latency = frontend_config("w16").backend.fu_latencies["imul"]
    assert latency == 3
    assert cpi == 14 * latency


def test_single_fp_multiplier_bounds_independent_chains():
    config = frontend_config("w16").backend
    assert config.fu_counts["fmul"] == 1
    assert 6 > config.fu_latencies["fmul"]  # latency alone allows 4.0
    cpi, deltas = steady_state("w16", FMUL_CHAINS)
    assert cpi == 6.0
    assert deltas["exec.fu_structural_stalls"] > 0


@pytest.mark.parametrize("config", ["w16", "pf-2x8w"])
def test_single_fragment_loop_always_reuses_its_buffer(config):
    _, deltas = steady_state(config, ADDI_LOOP)
    assert deltas["fragbuf.allocations"] > 0
    assert deltas["fragbuf.reuses"] == deltas["fragbuf.allocations"]


def test_raw_pair_crosses_a_fragment_boundary():
    program = loop(RAW_ACROSS, N)
    fragment_config = frontend_config("pr-2x8w").fragment
    loop_pc = program.symbols["loop"]
    first = walk_fragment(program, loop_pc, (False,), fragment_config)
    second = walk_fragment(program, first.next_pc, (True,),
                           fragment_config)
    assert (first.length, second.length) == (10, 9)
    assert second.next_pc == loop_pc
    writer, reader = first.instructions[8], second.instructions[0]
    assert writer.dest_reg() in reader.src_regs()
    assert writer.dest_reg() not in (
        inst.dest_reg() for inst in first.instructions[9:])


@pytest.mark.parametrize("config", ["pr-2x8w", "pr-4x4w"])
def test_warm_liveout_prediction_never_squashes(config):
    _, deltas = steady_state(config, RAW_ACROSS)
    assert deltas["rename.liveout_lookups"] == 2 * N
    assert deltas.get("rename.liveout_mispredicts", 0) == 0
    assert deltas.get("rename.liveout_squashes", 0) == 0


def test_l1d_true_lru_misses_on_three_lines_of_one_set():
    """On 2 lines of one set every load hits and finishes the cycle
    after it issues (``now + 1``).  On 3 lines A, B, C in turn, true
    LRU evicts each line just before it is needed again, so every load
    misses the L1D, hits the L2 and finishes at ``now + 1 +
    l2.latency``: the steady state differs by exactly 3 x l2.latency."""
    memory = frontend_config("w16").memory
    assert memory.l1d.num_sets * memory.l1d.line_bytes == 32768
    assert memory.l1d.assoc == 2 and memory.l1d.latency == 1
    assert memory.l2.num_sets * memory.l2.line_bytes > 2 * 32768
    two_cpi, two = steady_state("w16", LOAD_PAIRS,
                                load_pair_setup("way_a"), WAY_BUFFERS)
    three_cpi, three = steady_state("w16", LOAD_PAIRS,
                                    load_pair_setup("way_c"), WAY_BUFFERS)
    assert two_cpi == 6.0
    assert three_cpi - two_cpi == 3 * memory.l2.latency
    assert two["l1d.hits"] == 3 * N
    assert two.get("l1d.misses", 0) == 0
    assert three.get("l1d.hits", 0) == 0
    assert three["l1d.misses"] == 3 * N
    assert three["l1d.evictions"] == 3 * N
    assert three["l2.hits"] == 3 * N
    assert three.get("l2.misses", 0) == 0
