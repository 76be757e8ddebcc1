"""Tests for the synthetic workload generator and the benchmark suite."""

import gc
from collections import Counter

import pytest

from repro.config import FragmentConfig
from repro.emulator.machine import Machine
from repro.errors import AssemblerError, ConfigError, ReproError
from repro.workloads.characteristics import WorkloadSpec
from repro.workloads.generator import ProgramGenerator, generate_program
from repro.workloads.suite import (
    BENCHMARK_NAMES,
    SUITE_SPECS,
    characterize,
    default_sim_instructions,
    get_benchmark,
    get_spec,
    oracle_stream,
)
from tests.test_run_modes import unreachable_after

SMALL_SPEC = WorkloadSpec(name="tiny", seed=42, num_functions=8,
                          hot_functions=4)


class TestWorkloadSpec:
    def test_rejects_bad_hot_set(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(name="x", seed=1, num_functions=4, hot_functions=5)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(name="x", seed=1, num_functions=4, hot_functions=2,
                         diamond_prob=0.9, mem_prob=0.9)
        with pytest.raises(ConfigError):
            WorkloadSpec(name="x", seed=1, num_functions=4, hot_functions=2,
                         nop_prob=1.5)

    def test_rejects_non_pow2_switch(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(name="x", seed=1, num_functions=4, hot_functions=2,
                         switch_cases=6)


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = ProgramGenerator(SMALL_SPEC).generate_source()
        b = ProgramGenerator(SMALL_SPEC).generate_source()
        assert a == b

    def test_different_seeds_differ(self):
        import dataclasses
        other = dataclasses.replace(SMALL_SPEC, seed=43)
        assert (ProgramGenerator(SMALL_SPEC).generate_source()
                != ProgramGenerator(other).generate_source())

    def test_generated_program_executes_cleanly(self):
        program = generate_program(SMALL_SPEC)
        result = Machine(program).run(20_000)
        # Outer dispatcher loops forever; truncation is expected, a crash
        # (EmulationError) is not.
        assert len(result) == 20_000
        assert not result.halted

    def test_program_has_expected_structure(self):
        program = generate_program(SMALL_SPEC)
        assert "main" in program.symbols
        assert "outer_loop" in program.symbols
        assert all(f"func_{i}" in program.symbols
                   for i in range(SMALL_SPEC.num_functions))

    def test_execution_is_deterministic(self):
        program = generate_program(SMALL_SPEC)
        a = Machine(program).run(5000).stream
        b = Machine(program).run(5000).stream
        assert [(r.pc, r.taken) for r in a] == [(r.pc, r.taken) for r in b]

    @pytest.mark.parametrize("name", ["gzip", "gcc"])
    def test_generation_leaves_no_reference_cycle(self, name):
        """Reference counting frees a generated program and everything
        built on the way: the invariant that lets ``generate_program``
        pause the cyclic collector."""
        def generate_and_drop():
            generate_program(get_spec(name))

        _, unreachable = unreachable_after(generate_and_drop)
        assert unreachable == Counter()

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["gc-on", "gc-off"])
    def test_collector_state_is_restored(self, monkeypatch, enabled):
        """Assembly runs with the collector paused and leaves the
        caller's state behind it, also when the source does not
        assemble."""
        seen = []

        def bad_source(generator):
            seen.append(gc.isenabled())
            return "main:\n    bogus t0"

        monkeypatch.setattr(ProgramGenerator, "generate_source", bad_source)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(AssemblerError, match="line 2: unknown "
                                                     "mnemonic 'bogus'"):
                generate_program(SMALL_SPEC)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False]


class TestSuite:
    def test_twelve_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 12
        assert set(BENCHMARK_NAMES) == set(SUITE_SPECS)

    def test_get_spec_unknown(self):
        with pytest.raises(ReproError):
            get_spec("nonexistent")

    def test_programs_cached(self):
        assert get_benchmark("gzip") is get_benchmark("gzip")

    def test_oracle_stream_slicing(self):
        long = oracle_stream("gzip", 3000)
        short = oracle_stream("gzip", 1000)
        assert len(short.stream) == 1000
        assert short.stream[0] is long.stream[0]

    def test_default_sim_instructions_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_INSTRUCTIONS", "1234")
        assert default_sim_instructions() == 1234
        monkeypatch.setenv("REPRO_SIM_INSTRUCTIONS", "-3")
        with pytest.raises(ReproError):
            default_sim_instructions()

    def test_characterize_gzip(self):
        c = characterize("gzip", 5000)
        assert c.dynamic_instructions == 5000
        assert 8.0 < c.avg_fragment_length <= 16.0
        assert 0.0 < c.cond_branch_fraction < 0.3
        assert c.text_bytes == c.static_instructions * 4

    def test_fragment_length_band_matches_table2(self):
        """The suite must span the paper's Table 2 band: mcf shortest,
        compression benchmarks longest."""
        lengths = {name: characterize(name, 10_000).avg_fragment_length
                   for name in ("mcf", "gzip", "bzip2", "gcc")}
        assert lengths["mcf"] == min(lengths.values())
        assert lengths["mcf"] < 12.0
        assert max(lengths.values()) < 14.5

    def test_footprint_split(self):
        """crafty/gcc/perl/vortex are the big-footprint four (Section 5.5
        relies on this split)."""
        big = {n: get_benchmark(n).text_size
               for n in ("crafty", "gcc", "perl", "vortex")}
        small = {n: get_benchmark(n).text_size
                 for n in ("gzip", "bzip2", "mcf")}
        assert min(big.values()) > max(small.values())
        assert max(big.values()) > 64 * 1024  # exceeds the L1 I-cache


class TestFragmentConfigInteraction:
    def test_characterize_respects_fragment_config(self):
        short = characterize("gzip", 5000,
                             FragmentConfig(max_length=8,
                                            cond_branch_limit=4))
        assert short.avg_fragment_length <= 8.0
