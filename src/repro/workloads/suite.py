"""The 12-benchmark suite standing in for SPECint2000.

Each benchmark keeps its SPEC name and plays the same qualitative role as
the original (see Table 2 of the paper and DESIGN.md §2): mcf is
short-fragment and memory-bound, gcc/crafty/perl/vortex have large code
footprints and stress the caches, gzip/bzip2 are small-footprint and
highly predictable, eon/perl are indirect-branch-heavy, and so on.

Programs and oracle streams are deterministic per (name, seed) and cached
module-wide because generation and functional emulation are pure.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import FragmentConfig, env_int
from repro.emulator.machine import Machine
from repro.emulator.stream import ExecutionResult
from repro.errors import ConfigError, ReproError
from repro.frontend.fragments import average_fragment_length
from repro.isa.program import Program
from repro.workloads.characteristics import (
    MeasuredCharacteristics,
    WorkloadSpec,
)
from repro.workloads.generator import generate_program

#: Environment variable overriding the default experiment length.
SIM_LENGTH_ENV = "REPRO_SIM_INSTRUCTIONS"
#: Default dynamic instructions per benchmark for experiments.
DEFAULT_SIM_INSTRUCTIONS = 30_000


def default_sim_instructions() -> int:
    """Experiment length: env override or the library default.

    Raises :class:`~repro.errors.ConfigError` when the override is not
    a positive integer.
    """
    length = env_int(SIM_LENGTH_ENV, DEFAULT_SIM_INSTRUCTIONS)
    if length <= 0:
        raise ConfigError(f"{SIM_LENGTH_ENV} must be positive, got {length}")
    return length


SUITE_SPECS: Dict[str, WorkloadSpec] = {
    # Small footprint, highly predictable, sequential memory.
    "bzip2": WorkloadSpec(
        name="bzip2", seed=101, num_functions=110, hot_functions=70,
        segments_per_function=(5, 10), block_len=(5, 10),
        diamond_prob=0.26, loop_prob=0.14, switch_prob=0.02,
        call_prob=0.08, mem_prob=0.30, biased_branch_fraction=0.80,
        array_words=8192, random_access_fraction=0.15),
    # Large footprint, mixed predictability (chess search).
    "crafty": WorkloadSpec(
        name="crafty", seed=102, num_functions=260, hot_functions=150,
        segments_per_function=(4, 9), block_len=(4, 8),
        diamond_prob=0.32, loop_prob=0.08, switch_prob=0.05,
        call_prob=0.12, mem_prob=0.22, biased_branch_fraction=0.60,
        array_words=4096, random_access_fraction=0.40),
    # Indirect-branch heavy (C++ virtual dispatch).
    "eon": WorkloadSpec(
        name="eon", seed=103, num_functions=190, hot_functions=115,
        segments_per_function=(2, 5), block_len=(2, 5),
        diamond_prob=0.28, loop_prob=0.05, switch_prob=0.16,
        call_prob=0.16, mem_prob=0.18, biased_branch_fraction=0.70,
        array_words=2048, random_access_fraction=0.30),
    # Interpreter-like with moderate footprint.
    "gap": WorkloadSpec(
        name="gap", seed=104, num_functions=210, hot_functions=130,
        segments_per_function=(2, 5), block_len=(2, 5),
        diamond_prob=0.32, loop_prob=0.05, switch_prob=0.10,
        call_prob=0.14, mem_prob=0.22, biased_branch_fraction=0.60,
        array_words=4096, random_access_fraction=0.35),
    # Very large footprint, hard-to-predict control flow.
    "gcc": WorkloadSpec(
        name="gcc", seed=105, num_functions=550, hot_functions=420,
        segments_per_function=(3, 7), block_len=(3, 6),
        diamond_prob=0.35, loop_prob=0.05, switch_prob=0.08,
        call_prob=0.12, mem_prob=0.20, biased_branch_fraction=0.50,
        array_words=2048, random_access_fraction=0.40),
    # Small footprint, predictable, sequential (compression).
    "gzip": WorkloadSpec(
        name="gzip", seed=106, num_functions=100, hot_functions=60,
        segments_per_function=(5, 10), block_len=(5, 11),
        diamond_prob=0.25, loop_prob=0.15, switch_prob=0.01,
        call_prob=0.08, mem_prob=0.30, biased_branch_fraction=0.80,
        array_words=8192, random_access_fraction=0.10),
    # Short fragments, memory-bound pointer chasing.
    "mcf": WorkloadSpec(
        name="mcf", seed=107, num_functions=24, hot_functions=12,
        segments_per_function=(1, 2), block_len=(1, 2),
        diamond_prob=0.30, loop_prob=0.02, switch_prob=0.25,
        call_prob=0.18, mem_prob=0.20, biased_branch_fraction=0.55,
        switch_cases=4, array_words=262144,
        random_access_fraction=0.80),
    # Moderate footprint, data-dependent branches.
    "parser": WorkloadSpec(
        name="parser", seed=108, num_functions=230, hot_functions=145,
        segments_per_function=(2, 4), block_len=(2, 4),
        diamond_prob=0.35, loop_prob=0.04, switch_prob=0.10,
        call_prob=0.14, mem_prob=0.24, biased_branch_fraction=0.50,
        array_words=8192, random_access_fraction=0.45),
    # Large footprint, indirect-heavy interpreter.
    "perl": WorkloadSpec(
        name="perl", seed=109, num_functions=340, hot_functions=215,
        segments_per_function=(2, 6), block_len=(3, 6),
        diamond_prob=0.28, loop_prob=0.04, switch_prob=0.12,
        call_prob=0.14, mem_prob=0.22, biased_branch_fraction=0.55,
        array_words=2048, random_access_fraction=0.35),
    # Placement/annealing: data-dependent branches, random access.
    "twolf": WorkloadSpec(
        name="twolf", seed=110, num_functions=140, hot_functions=85,
        segments_per_function=(4, 9), block_len=(4, 9),
        diamond_prob=0.33, loop_prob=0.10, switch_prob=0.02,
        call_prob=0.10, mem_prob=0.28, biased_branch_fraction=0.50,
        array_words=16384, random_access_fraction=0.50),
    # Large footprint, well-predicted branches (OO database).
    "vortex": WorkloadSpec(
        name="vortex", seed=111, num_functions=420, hot_functions=300,
        segments_per_function=(3, 6), block_len=(3, 7),
        diamond_prob=0.28, loop_prob=0.05, switch_prob=0.08,
        call_prob=0.15, mem_prob=0.24, biased_branch_fraction=0.75,
        array_words=2048, random_access_fraction=0.30),
    # Small-moderate footprint, mixed behaviour.
    "vpr": WorkloadSpec(
        name="vpr", seed=112, num_functions=125, hot_functions=75,
        segments_per_function=(4, 9), block_len=(4, 9),
        diamond_prob=0.30, loop_prob=0.12, switch_prob=0.02,
        call_prob=0.10, mem_prob=0.28, biased_branch_fraction=0.60,
        array_words=16384, random_access_fraction=0.50),
}

#: Suite order used in every report (matches Table 2).
BENCHMARK_NAMES: Tuple[str, ...] = tuple(sorted(SUITE_SPECS))

_program_cache: Dict[str, Program] = {}
#: name -> (longest requested length, its ExecutionResult).  Keyed by
#: benchmark name alone — the longest stream serves every shorter request
#: (emulation is deterministic, so shorter streams are exact prefixes).
_stream_cache: Dict[str, Tuple[int, ExecutionResult]] = {}
#: (name, length) -> memoized sliced view of the longest stream, so sweep
#: jobs stop re-allocating a 30k-element list on every call.
_slice_cache: Dict[Tuple[str, int], ExecutionResult] = {}


def get_spec(name: str) -> WorkloadSpec:
    """The workload spec for *name*; raises ReproError when unknown."""
    try:
        return SUITE_SPECS[name]
    except KeyError:
        raise ReproError(
            f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}"
        ) from None


def get_benchmark(name: str) -> Program:
    """The (cached) generated program for benchmark *name*."""
    if name not in _program_cache:
        _program_cache[name] = generate_program(get_spec(name))
    return _program_cache[name]


def cached_program(name: str) -> Optional[Program]:
    """The in-process cached program for *name*, or None (never
    generates — used by the prep layer to decide whether the on-disk
    program+stream bundle is worth loading)."""
    return _program_cache.get(name)


def seed_program(name: str, program: Program) -> None:
    """Install an externally-obtained program (the on-disk prep cache)
    unless one is already cached — the stream cache and program cache
    must stay identity-consistent (a stream reads its instructions from
    its program's instruction objects)."""
    _program_cache.setdefault(name, program)


def oracle_stream(name: str,
                  max_instructions: Optional[int] = None) -> ExecutionResult:
    """The (cached) functional-execution stream for benchmark *name*.

    The cache keeps the longest stream requested so far per benchmark and
    serves shorter requests by slicing it.
    """
    length = (default_sim_instructions() if max_instructions is None
              else max_instructions)
    entry = _stream_cache.get(name)
    if entry is None or entry[0] < length:
        entry = (length, Machine(get_benchmark(name)).run(length))
        _install_stream(name, entry)
    cached = entry[1]
    if len(cached.stream) <= length:
        return cached
    key = (name, length)
    sliced = _slice_cache.get(key)
    if sliced is None:
        sliced = ExecutionResult(cached.stream[:length], cached.outputs,
                                 cached.halted)
        _slice_cache[key] = sliced
    return sliced


def _install_stream(name: str,
                    entry: Tuple[int, ExecutionResult]) -> None:
    """Replace *name*'s cached stream, dropping its memoized slices —
    they were built from the superseded stream."""
    _stream_cache[name] = entry
    for key in [k for k in _slice_cache if k[0] == name]:
        del _slice_cache[key]


def seed_stream(name: str, requested_length: int,
                result: ExecutionResult) -> None:
    """Install an externally-obtained stream (e.g. the on-disk stream
    cache) as benchmark *name*'s cached stream, if it is the longest seen.

    *requested_length* is the emulation length the stream was produced
    with — it can exceed ``len(result.stream)`` when the program halted.
    """
    entry = _stream_cache.get(name)
    if entry is None or entry[0] < requested_length:
        _install_stream(name, (requested_length, result))


def cached_stream_length(name: str) -> int:
    """Longest emulation length cached in-process for *name* (0 if none)."""
    entry = _stream_cache.get(name)
    return entry[0] if entry is not None else 0


def peek_stream(name: str) -> Optional[Tuple[int, ExecutionResult]]:
    """The longest cached ``(requested length, stream)`` for *name*,
    without triggering emulation (None when nothing is cached)."""
    return _stream_cache.get(name)


def clear_caches() -> None:
    """Drop all cached programs and streams (mostly for tests)."""
    _program_cache.clear()
    clear_streams()


def clear_streams() -> None:
    """Drop all cached streams and slices, keeping the programs."""
    _stream_cache.clear()
    _slice_cache.clear()


def forget(name: str) -> None:
    """Drop benchmark *name*'s cached program, stream and slices."""
    _program_cache.pop(name, None)
    _stream_cache.pop(name, None)
    for key in [k for k in _slice_cache if k[0] == name]:
        del _slice_cache[key]


def characterize(name: str, max_instructions: Optional[int] = None,
                 fragment_config: Optional[FragmentConfig] = None
                 ) -> MeasuredCharacteristics:
    """Measure the Table 2-style characteristics of benchmark *name*."""
    program = get_benchmark(name)
    result = oracle_stream(name, max_instructions)
    config = fragment_config or FragmentConfig()
    stream = result.stream
    total = len(stream)
    if total == 0:
        raise ReproError(f"benchmark {name!r} produced no instructions")

    insts = list(stream.program.insts_at(stream.pc))
    cond = sum(inst.is_cond_branch for inst in insts)
    indirect = sum(inst.is_indirect for inst in insts)
    taken = sum(stream.taken)
    loads = sum(inst.is_load for inst in insts)
    stores = sum(inst.is_store for inst in insts)

    return MeasuredCharacteristics(
        name=name,
        static_instructions=len(program),
        text_bytes=program.text_size,
        dynamic_instructions=total,
        avg_fragment_length=average_fragment_length(stream, config),
        cond_branch_fraction=cond / total,
        indirect_fraction=indirect / total,
        taken_fraction=taken / total,
        load_fraction=loads / total,
        store_fraction=stores / total,
    )
