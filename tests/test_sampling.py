"""Tests for interval-sampled simulation (``repro.sampling``).

Five concerns:

* **Chunked warming parity** — feeding the stream through
  :class:`WarmingState` in chunks must leave every warmed structure
  bit-identical to the whole-stream pass (the property that licenses
  fast-forwarding gaps incrementally).
* **Snapshot warming** — cloning a cached donor must be bit-identical
  to training the processor directly.
* **Prep cache** — oracle streams and programs are shared in-process
  and across processes (the ``.repro_cache`` disk bundle) without
  breaking the instruction-object identity the decode cache relies on.
* **Sampling engine** — config resolution, the checkpoint seam,
  deterministic results across processes, and the ``sampling.*``
  counter contract.
* **Accuracy** — on the pinned perf matrix at 8x the default length,
  sampled IPC stays within 3% of the full-detail reference (the
  acceptance bound; see docs/PERFORMANCE.md).
"""

import copyreg
import gc
import io
import json
import os
import pickle
import subprocess
import sys
from array import array

import pytest

from repro import frontend_config, run_simulation
from repro.core.processor import Processor
from repro.core.warming import WarmingState, cache_touches, warm_processor
from repro.emulator.machine import Machine
from repro.errors import ReproError, SimulationError
from repro.experiments.runner import SweepJob, run_job
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.sampling import SamplingConfig, clear_prep_caches
from repro.sampling import engine as sampling_engine
from repro.sampling import prep
from repro.sampling.engine import resolve_sampling
from repro.workloads import suite
from tests.test_stream_digests import INSTRUCTION_FIELDS, program_digest

#: The accuracy harness scale: 8x the default experiment length, where
#: sampling has enough measured units for the CLT bound to mean something.
ACCURACY_BENCHMARK = "gcc"
ACCURACY_INSTRUCTIONS = 8 * suite.DEFAULT_SIM_INSTRUCTIONS
ACCURACY_BOUND = 0.03
PINNED_MATRIX = ("w16", "tc", "pr-2x8w")


def make_processor(config_name="pf-2x8w", bench="gzip", length=3000):
    config = frontend_config(config_name)
    program = suite.get_benchmark(bench)
    stream = suite.oracle_stream(bench, length).stream
    processor = Processor(config, program, stream,
                          watchdog=None, invariants=None)
    return processor, stream


def structure_state(processor):
    """Every warmed structure's complete state, for bit-exact comparison."""
    predictor = processor.trace_predictor
    primary, secondary = predictor.state_view()
    state = {
        "bimodal": dict(processor.bimodal._counters),
        "primary": primary,
        "secondary": secondary,
        "history": tuple(predictor._history),
        "retire_history": tuple(predictor._retire_history),
        "liveout": processor.liveout_predictor.state_view(),
        "l1i": processor.memory.l1i.state_view(),
        "l1d": processor.memory.l1d.state_view(),
        "l2": processor.memory.l2.state_view(),
    }
    if processor.trace_cache is not None:
        state["tc"] = processor.trace_cache.state_view()
    return state


def fill_log(processor):
    """Record every cache fill of *processor* as ``(cache, address)``."""
    log = []
    for name in ("l1i", "l1d", "l2"):
        cache = getattr(processor.memory, name)

        def fill(addr, fill=cache.fill, name=name):
            log.append((name, addr))
            return fill(addr)
        cache.fill = fill
    return log


def _bundles(cache_dir, name):
    """The on-disk stream bundles of suite benchmark *name*."""
    return sorted((cache_dir / "streams").glob(
        f"{name}-*{prep.BUNDLE_SUFFIX}"))


def _fields(result):
    """Every field of every record except ``inst``, with the types of
    ``taken`` and ``ea``, plus the run's outputs and halt flag."""
    records = [(r.index, r.pc, r.next_pc, r.taken, type(r.taken), r.ea,
                type(r.ea)) for r in result.stream]
    return records, result.outputs, result.halted


def _forbid_emulation(patch):
    def refuse(self, max_instructions):
        raise AssertionError("re-emulated instead of loading the bundle")
    patch.setattr(Machine, "run", refuse)


def _wrong_shape(bundle):
    return pickle.dumps(("just", "strings"))


def _ragged_columns(bundle):
    program, packed = pickle.loads(bundle.read_bytes())
    return pickle.dumps((program, packed._replace(taken=packed.taken[:-1])))


class _StatePickler(pickle.Pickler):
    """Pickles an :class:`Instruction` as a bare object plus its former
    instance dict (every field by name, in the former key order), the
    form bundles stored before ``Instruction`` pickled as its
    constructor arguments, and a :class:`Program` as a bare object plus
    its instance dict, address map included, as bundles stored it before
    it pickled as its constructor arguments."""

    def reducer_override(self, obj):
        if type(obj) is Instruction:
            state = {name: getattr(obj, name) for name in INSTRUCTION_FIELDS}
            return copyreg.__newobj__, (Instruction,), state
        if type(obj) is Program:
            return copyreg.__newobj__, (Program,), dict(obj.__dict__)
        return NotImplemented


def _former_format(bundle):
    buffer = io.BytesIO()
    _StatePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
        pickle.loads(bundle.read_bytes()))
    return buffer.getvalue()


def _pc_outside_text(bundle):
    program, packed = pickle.loads(bundle.read_bytes())
    pcs = array("Q", packed.pc)
    pcs[len(pcs) // 2] = program.text_end
    return pickle.dumps((program, packed._replace(pc=pcs)))


def _taken_not_a_bit(bundle):
    program, packed = pickle.loads(bundle.read_bytes())
    taken = bytearray(packed.taken)
    taken[len(taken) // 2] = 2
    return pickle.dumps((program, packed._replace(taken=bytes(taken))))


def _listed_address_column(bundle):
    program, packed = pickle.loads(bundle.read_bytes())
    return pickle.dumps((program, packed._replace(ea=list(packed.ea))))


class TestChunkedWarmingParity:
    """Chunk boundaries must be invisible to every warmed structure."""

    @pytest.mark.parametrize("config_name", ["pf-2x8w", "tc"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 977])
    def test_bit_identical_to_whole_stream(self, config_name, chunk_size):
        whole, stream = make_processor(config_name)
        chunked, _ = make_processor(config_name)
        warm_processor(whole, stream)
        warm_processor(chunked, stream, chunk_size=chunk_size)
        assert structure_state(chunked) == structure_state(whole)

    def test_feed_after_finish_raises(self):
        processor, stream = make_processor()
        state = WarmingState(processor)
        state.feed(stream)
        state.finish()
        with pytest.raises(RuntimeError):
            state.feed(stream)

    def test_discard_partial_drops_pending_fragment(self):
        processor, stream = make_processor()
        state = WarmingState(processor)
        # Find a prefix that ends mid-fragment: cut just after a
        # non-branch record so a carve is guaranteed to be in progress.
        cut = next(i for i, r in enumerate(stream[:200], start=1)
                   if not r.inst.is_nop and not r.inst.is_cond_branch
                   and not r.inst.is_indirect)
        state.feed(stream[:cut])
        dropped = state.discard_partial()
        assert dropped > 0
        assert state.discard_partial() == 0  # idempotent once empty

    def test_feed_caches_trains_nothing(self):
        processor, stream = make_processor(config_name="tc")
        state = WarmingState(processor)
        state.feed_caches(cache_touches(stream))
        assert len(processor.bimodal) == 0
        assert processor.trace_predictor.primary_occupancy == 0
        assert not any(processor.trace_cache.state_view())
        first_pc = stream[0].pc
        assert processor.memory.l1i.probe(first_pc) or \
            processor.memory.l2.probe(first_pc)

    def test_touch_replay_matches_full_warming_caches(self):
        """The gap warmer against an independent oracle: replaying touch
        lists gap by gap, carrying the I-line as the sampled schedule
        does, fills the caches in exactly the order full functional
        warming does and leaves every set (tags and LRU order) equal."""
        replayed, stream = make_processor("tc", "gzip", 6000)
        fed, _ = make_processor("tc", "gzip", 6000)
        replayed_fills, fed_fills = fill_log(replayed), fill_log(fed)
        state = WarmingState(replayed)
        seen_line = -1
        for start in range(0, len(stream), 977):
            gap = stream[start:start + 977]
            state.feed_caches(cache_touches(gap, seen_line))
            seen_line = gap[-1].pc >> 6
        WarmingState(fed).feed(stream)
        assert replayed_fills == fed_fills
        for name in ("l1i", "l1d", "l2"):
            assert (getattr(replayed.memory, name).state_view()
                    == getattr(fed.memory, name).state_view()), name


class TestSnapshotWarming:
    """Cloning the cached donor == training directly, bit for bit."""

    @pytest.mark.parametrize("config_name", ["pf-2x8w", "tc"])
    def test_clone_matches_direct_warming(self, config_name):
        clear_prep_caches()
        program, execution, key = prep.get_oracle("gzip", 3000)
        oracle = execution.stream
        config = frontend_config(config_name)

        direct = Processor(config, program, oracle,
                           watchdog=None, invariants=None)
        warm_processor(direct, oracle)

        for _ in range(2):  # second pass exercises the cache-hit path
            cloned = Processor(config, program, oracle,
                               watchdog=None, invariants=None)
            prep.warm_from_snapshot(cloned, oracle, key, pin=program)
            assert structure_state(cloned) == structure_state(direct)
            assert cloned.stats.as_dict() == {}

    def test_snapshot_clone_is_isolated(self):
        """Training one clone must not leak into the donor or siblings."""
        clear_prep_caches()
        program, execution, key = prep.get_oracle("gzip", 2000)
        config = frontend_config("pf-2x8w")
        first = Processor(config, program, execution.stream,
                          watchdog=None, invariants=None)
        prep.warm_from_snapshot(first, execution.stream, key, pin=program)
        before = structure_state(first)
        first.run()  # mutates predictors through the commit carver
        second = Processor(config, program, execution.stream,
                           watchdog=None, invariants=None)
        prep.warm_from_snapshot(second, execution.stream, key, pin=program)
        assert structure_state(second) == before


class TestPrepCache:
    def test_suite_oracle_is_shared_in_process(self):
        p1, r1, k1 = prep.get_oracle("gzip", 2000)
        p2, r2, k2 = prep.get_oracle("gzip", 2000)
        assert p1 is p2 and r1 is r2 and k1 == k2

    def test_adhoc_program_is_memoized(self):
        program = suite.get_benchmark("mcf")
        p1, r1, k1 = prep.get_oracle(program, 1500)
        p2, r2, k2 = prep.get_oracle(program, 1500)
        assert p1 is program and r1 is r2 and k1 == k2

    def test_disk_bundle_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
        clear_prep_caches()
        suite.clear_caches()
        _, first, _ = prep.get_oracle("gzip", 2000)
        assert len(_bundles(tmp_path, "gzip")) == 1
        # Every field is exercised: loads and stores carry an ea, taken
        # branches and returns leave the fall-through path.
        assert any(r.inst.is_load for r in first.stream)
        assert any(r.inst.is_store for r in first.stream)
        assert any(r.taken and r.inst.is_cond_branch for r in first.stream)
        assert any(r.inst.is_return for r in first.stream)

        # A fresh process state (caches cleared) must load the bundle
        # instead of re-emulating, reproducing every record field and
        # binding each record to the bundled program's instruction.
        clear_prep_caches()
        suite.clear_caches()
        with monkeypatch.context() as patch:
            _forbid_emulation(patch)
            program, result, _ = prep.get_oracle("gzip", 2000)
        assert suite.cached_program("gzip") is program
        assert _fields(result) == _fields(first)
        assert all(r.inst is program.inst_at(r.pc) for r in result.stream)

        clear_prep_caches()
        suite.clear_caches()

    def test_bundle_in_the_former_instruction_format_loads(
            self, tmp_path, monkeypatch):
        """Bundles written before ``Instruction`` pickled as its
        constructor arguments load to the same program and stream, so
        ``STREAM_CACHE_VERSION`` needs no bump."""
        monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
        clear_prep_caches()
        suite.clear_caches()
        fresh, first, _ = prep.get_oracle("gzip", 2000)
        bundle = _bundles(tmp_path, "gzip")[0]
        former = _former_format(bundle)
        assert len(former) > 2 * bundle.stat().st_size
        bundle.write_bytes(former)

        clear_prep_caches()
        suite.clear_caches()
        before = prep.PREP_STATS.get("prep.stream_corrupt")
        with monkeypatch.context() as patch:
            _forbid_emulation(patch)
            program, result, _ = prep.get_oracle("gzip", 2000)
        assert prep.PREP_STATS.get("prep.stream_corrupt") == before
        assert program_digest(program) == program_digest(fresh)
        assert _fields(result) == _fields(first)
        assert all(r.inst is program.inst_at(r.pc) for r in result.stream)
        clear_prep_caches()
        suite.clear_caches()

    def test_no_cache_env_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(prep.NO_CACHE_ENV, "1")
        clear_prep_caches()
        suite.clear_caches()
        prep.get_oracle("gzip", 1500)
        assert not (tmp_path / "streams").exists()
        clear_prep_caches()
        suite.clear_caches()

    def test_corrupt_stream_bundle_is_quarantined(self, tmp_path,
                                                  monkeypatch):
        """A torn/garbage bundle is moved aside as *.corrupt (never
        silently unlinked), counted, and transparently re-emulated."""
        monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
        clear_prep_caches()
        suite.clear_caches()
        _, clean, _ = prep.get_oracle("gzip", 2000)
        bundle = _bundles(tmp_path, "gzip")[0]
        bundle.write_bytes(b"\x80\x04 not a pickle")

        clear_prep_caches()
        suite.clear_caches()
        before = prep.PREP_STATS.get("prep.stream_corrupt")
        _, recovered, _ = prep.get_oracle("gzip", 2000)
        assert prep.PREP_STATS.get("prep.stream_corrupt") == before + 1
        corpse = bundle.with_name(bundle.name + ".corrupt")
        assert corpse.exists()  # evidence kept for postmortems
        assert corpse.read_bytes() == b"\x80\x04 not a pickle"
        # Recovery re-emulated the identical stream and re-stored it.
        assert [r.pc for r in recovered.stream] == \
            [r.pc for r in clean.stream]
        assert bundle.exists()

        # The quarantined corpse never shadows the healthy rewrite.
        clear_prep_caches()
        suite.clear_caches()
        marker = prep.PREP_STATS.get("prep.stream_corrupt")
        prep.get_oracle("gzip", 2000)
        assert prep.PREP_STATS.get("prep.stream_corrupt") == marker
        clear_prep_caches()
        suite.clear_caches()

    @pytest.mark.parametrize("corrupt", [
        _wrong_shape, _ragged_columns, _pc_outside_text, _taken_not_a_bit,
        _listed_address_column,
    ], ids=["wrong-shape", "ragged-columns", "pc-outside-text",
            "taken-not-a-bit", "listed-address-column"])
    def test_wrong_typed_bundle_is_quarantined(self, tmp_path, monkeypatch,
                                               corrupt):
        """A well-formed pickle that does not decode to the stream is
        corrupt too."""
        monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
        clear_prep_caches()
        suite.clear_caches()
        _, clean, _ = prep.get_oracle("mcf", 1500)
        bundle = _bundles(tmp_path, "mcf")[0]
        bundle.write_bytes(corrupt(bundle))

        clear_prep_caches()
        suite.clear_caches()
        before = prep.PREP_STATS.get("prep.stream_corrupt")
        _, recovered, _ = prep.get_oracle("mcf", 1500)
        assert prep.PREP_STATS.get("prep.stream_corrupt") == before + 1
        assert bundle.with_name(bundle.name + ".corrupt").exists()
        assert _fields(recovered) == _fields(clean)
        clear_prep_caches()
        suite.clear_caches()

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["gc-on", "gc-off"])
    def test_collector_state_is_restored(self, tmp_path, monkeypatch,
                                         enabled):
        """Emulating, decoding a bundle, and failing to decode one inside
        the paused window all leave the caller's collector state."""
        monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            clear_prep_caches()
            suite.clear_caches()
            prep.get_oracle("mcf", 1500)
            assert gc.isenabled() is enabled

            clear_prep_caches()
            suite.clear_caches()
            with monkeypatch.context() as patch:
                _forbid_emulation(patch)
                prep.get_oracle("mcf", 1500)
            assert gc.isenabled() is enabled

            bundle = _bundles(tmp_path, "mcf")[0]
            bundle.write_bytes(_pc_outside_text(bundle))
            clear_prep_caches()
            suite.clear_caches()
            before = prep.PREP_STATS.get("prep.stream_corrupt")
            prep.get_oracle("mcf", 1500)
            assert prep.PREP_STATS.get("prep.stream_corrupt") == before + 1
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
            clear_prep_caches()
            suite.clear_caches()

    def test_storing_deletes_superseded_pkl_bundles(self, tmp_path,
                                                    monkeypatch):
        """Old-format ``.pkl`` bundles of the stored stream's digest are
        deleted unread; other digests (other suite seeds) stay."""
        monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
        streams = tmp_path / "streams"
        streams.mkdir()
        digest = prep._stream_digest("gzip")
        superseded = [streams / f"gzip-{digest}-{n}.pkl"
                      for n in (1000, 1500, 50000)]
        kept = [streams / "gzip-000000000000-1500.pkl",
                streams / f"gzip-{digest}-1500.pkl.corrupt"]
        for path in superseded + kept:
            path.write_bytes(b"old format")

        clear_prep_caches()
        suite.clear_caches()
        before = prep.PREP_STATS.get("prep.stream_corrupt")
        prep.get_oracle("gzip", 1500)
        assert prep.PREP_STATS.get("prep.stream_corrupt") == before
        assert not any(path.exists() for path in superseded)
        assert all(path.exists() for path in kept)
        assert len(_bundles(tmp_path, "gzip")) == 1
        clear_prep_caches()
        suite.clear_caches()


class TestCheckpointSeam:
    def test_run_until_stops_at_commit_bound(self):
        processor, _ = make_processor("w16", "gzip", 2000)
        warm_processor(processor, processor._oracle)
        assert processor.run_until(500)
        assert processor.committed == 500
        assert processor.run_until(1200)
        assert processor.committed == 1200

    def test_restart_at_rewinds_commit_index(self):
        processor, _ = make_processor("w16", "gzip", 2000)
        warm_processor(processor, processor._oracle)
        processor.run_until(600)
        processor.restart_at(200)
        assert processor.committed == 200
        assert processor.run_until(400)
        assert processor.committed == 400

    def test_restart_at_rejects_out_of_range(self):
        processor, _ = make_processor("w16", "gzip", 2000)
        with pytest.raises(SimulationError):
            processor.restart_at(len(processor._oracle))


class TestSamplingConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            SamplingConfig(period=0)
        with pytest.raises(ReproError):
            SamplingConfig(unit=0)
        with pytest.raises(ReproError):
            SamplingConfig(warmup=-1)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(sampling_engine.SAMPLE_ENV, "8")
        monkeypatch.setenv(sampling_engine.UNIT_ENV, "500")
        monkeypatch.setenv(sampling_engine.WARMUP_ENV, "250")
        config = SamplingConfig.from_env()
        assert (config.period, config.unit, config.warmup) == (8, 500, 250)
        assert SamplingConfig.from_env(period=4).period == 4

    def test_resolve_sampling(self, monkeypatch):
        monkeypatch.delenv(sampling_engine.SAMPLE_ENV, raising=False)
        assert resolve_sampling(None) is None
        assert resolve_sampling(False) is None
        assert resolve_sampling(0) is None
        assert resolve_sampling(True) == SamplingConfig()
        assert resolve_sampling(4).period == 4
        explicit = SamplingConfig(period=2)
        assert resolve_sampling(explicit) is explicit
        monkeypatch.setenv(sampling_engine.SAMPLE_ENV, "8")
        assert resolve_sampling(None).period == 8
        monkeypatch.setenv(sampling_engine.SAMPLE_ENV, "0")
        assert resolve_sampling(None) is None

    def test_falsy_env_values_fall_back(self, monkeypatch):
        """Regression: ``REPRO_SAMPLE=0`` is the documented "off"
        spelling, but the string ``"0"`` is truthy, so the old
        ``int(env or default)`` parsed it to a literal 0 and an
        explicit ``sampling=True`` run then *crashed* in config
        validation instead of using the default period."""
        monkeypatch.setenv(sampling_engine.SAMPLE_ENV, "0")
        monkeypatch.setenv(sampling_engine.UNIT_ENV, "0")
        config = SamplingConfig.from_env()  # the REPRO_SAMPLE=0 crash
        assert config.period == sampling_engine.DEFAULT_PERIOD
        assert config.unit == sampling_engine.DEFAULT_UNIT
        assert resolve_sampling(True).period == sampling_engine.DEFAULT_PERIOD
        # Blank and whitespace-only values defer like unset ones.
        monkeypatch.setenv(sampling_engine.SAMPLE_ENV, "  ")
        assert resolve_sampling(None) is None
        assert SamplingConfig.from_env().period \
            == sampling_engine.DEFAULT_PERIOD
        # warmup=0 is a *valid* value, not a falsy fallback case.
        monkeypatch.setenv(sampling_engine.WARMUP_ENV, "0")
        assert SamplingConfig.from_env().warmup == 0


class TestRunSampled:
    def test_counter_contract(self):
        result = run_simulation("tc", "gzip", max_instructions=8000,
                                sampling=SamplingConfig(period=4))
        counters = result.counters
        assert counters["sampling.enabled"] == 1.0
        assert counters["sampling.units_measured"] + \
            counters["sampling.units_skipped"] == \
            counters["sampling.units_total"]
        assert counters["sampling.measured_insts"] <= result.committed
        assert result.cycles > 0 and result.ipc > 0
        assert counters["sampling.ipc_halfwidth_rel"] >= 0.0

    def test_sampling_off_is_bit_identical_to_default(self):
        default = run_simulation("w16", "gzip", max_instructions=4000)
        explicit = run_simulation("w16", "gzip", max_instructions=4000,
                                  sampling=False)
        assert explicit.cycles == default.cycles
        assert explicit.counters == default.counters
        assert "sampling.enabled" not in default.counters

    def test_env_knob_activates_sampling(self, monkeypatch):
        monkeypatch.setenv(sampling_engine.SAMPLE_ENV, "4")
        result = run_simulation("w16", "gzip", max_instructions=6000)
        assert result.counter("sampling.enabled") == 1.0
        assert result.counter("sampling.period") == 4.0

    def test_estimate_does_not_depend_on_python_version(self):
        # Ten units at CPI 0.1: summed left to right they make
        # 0.9999999999999999, compensated (sum() from Python 3.12) 1.0.
        mean, _, _ = sampling_engine._cpi_stats([1] * 10, [10] * 10)
        assert mean == 0.9999999999999999 / 10

    def test_deterministic_across_processes(self, tmp_path):
        """Two fresh interpreters must produce identical sampled results
        (one exercises the cold disk-cache path, one the warm path)."""
        script = (
            "import json, sys\n"
            "from repro import run_simulation\n"
            "from repro.sampling import SamplingConfig\n"
            "r = run_simulation('tc', 'gzip', max_instructions=6000,\n"
            "                   sampling=SamplingConfig(period=4))\n"
            "print(json.dumps({'cycles': r.cycles,\n"
            "                  'counters': r.counters}, sort_keys=True))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env[prep.CACHE_DIR_ENV] = str(tmp_path)
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]


class TestSweepSampling:
    def test_cache_key_unchanged_without_sampling(self):
        job = SweepJob("w16", "gzip", 2000)
        assert "sampling" not in job.cache_key()

    def test_cache_key_distinguishes_sampled_jobs(self):
        full = SweepJob("w16", "gzip", 2000)
        sampled = SweepJob("w16", "gzip", 2000, sampling=(4, 500, 250))
        assert full.cache_key() != sampled.cache_key()
        assert "sampled=4x500+250" in sampled.describe()

    def test_run_job_sampled(self):
        job = SweepJob("w16", "gzip", 6000, sampling=(4, 1000, 500))
        result = run_job(job)
        assert result.counter("sampling.enabled") == 1.0
        assert result.counter("sampling.period") == 4.0


class TestSampledAccuracy:
    """The acceptance harness: pinned matrix, 8x default length, <=3%."""

    _pairs = {}

    @classmethod
    def _pair(cls, config_name):
        if config_name not in cls._pairs:
            program, execution, key = prep.get_oracle(
                ACCURACY_BENCHMARK, ACCURACY_INSTRUCTIONS)
            oracle = execution.stream
            config = frontend_config(config_name)
            full = Processor(config, program, oracle,
                             watchdog=None, invariants=None)
            prep.warm_from_snapshot(full, oracle, key, pin=program)
            full.run()
            sampled = run_simulation(config_name, ACCURACY_BENCHMARK,
                                     max_instructions=ACCURACY_INSTRUCTIONS,
                                     sampling=SamplingConfig())
            cls._pairs[config_name] = (full.committed / full.now, sampled)
        return cls._pairs[config_name]

    @pytest.mark.parametrize("config_name", PINNED_MATRIX)
    def test_ipc_within_bound(self, config_name):
        full_ipc, sampled = self._pair(config_name)
        error = abs(sampled.ipc - full_ipc) / full_ipc
        assert error <= ACCURACY_BOUND, (
            f"{config_name}: sampled IPC {sampled.ipc:.4f} vs full "
            f"{full_ipc:.4f} — relative error {error:.2%} exceeds "
            f"{ACCURACY_BOUND:.0%}")

    @pytest.mark.parametrize("config_name", PINNED_MATRIX)
    def test_enough_measured_units(self, config_name):
        _, sampled = self._pair(config_name)
        assert sampled.counter("sampling.units_measured") >= 10
        assert sampled.counter("sampling.window_timeouts") == 0
