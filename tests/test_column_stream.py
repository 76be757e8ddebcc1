"""The oracle stream is its columns, from the emulator to commit.

* **No record on the run path** — every run mode, a co-sim group and a
  pooled sweep complete with ``DynamicInstruction`` unconstructible,
  from a fresh emulation and from a stream bundle.
* **Bytes per instruction** — a 120 000-instruction stream's run-time
  form (its columns, the NOP-free columns and the NOP-free→raw map)
  stays under 64 B per dynamic instruction.
* **Bundles** — a bundle packed from records, the way bundles were
  written when the stream was a record list, loads to the columns a
  fresh emulation gives, with 32- and 64-bit address columns.
* **The record view** — ``len``, indexing, slicing and iteration give
  the records the reference emulator builds, field for field.
* **Shared state** — a co-sim group computes each carve's live-outs
  once; serial runs on one stream share one ``SharedStream`` (the
  NOP-free view, decode cache, fragment metadata and walk memos), which
  dies with the stream, and count their shared decode per call; and a
  serial sweep frees each benchmark's stream state after its last
  group, but for the final benchmark's, which its caller's next sweep
  reuses.
"""

import pickle
import shutil
import tracemalloc
import weakref
from array import array

import pytest

from repro.checkpoint import CHECKPOINT_DIR_ENV
from repro.config import PAPER_CONFIGS
from repro.core.simulation import run_simulation
from repro.emulator.machine import Machine
from repro.emulator.stream import (
    DynamicInstruction,
    PackedStream,
    decode_stream,
)
from repro.experiments.runner import ResultCache, SweepJob, run_sweep
from repro.frontend import control
from repro.perf import soa
from repro.perf.cosim import run_cosim
from repro.perf.soa import SharedStream
from repro.predictors import liveout
from repro.sampling import SamplingConfig, prep
from repro.workloads import suite
from tests.emulator_reference import ReferenceMachine

LENGTH = 3000
SAMPLING = SamplingConfig(period=4, unit=500, warmup=500)


def _clear():
    prep.clear_prep_caches()
    suite.clear_caches()


@pytest.fixture
def cache_dir(monkeypatch, tmp_path):
    """A fresh stream-bundle directory and empty in-process caches."""
    monkeypatch.setenv(prep.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt"))
    _clear()
    yield tmp_path
    _clear()


def _bundles(directory, name):
    return sorted((directory / "streams").glob(
        f"{name}-*{prep.BUNDLE_SUFFIX}"))


def _outcome(result):
    return (result.config_name, result.cycles, result.committed,
            dict(result.counters))


@pytest.mark.parametrize("source", ["emulation", "bundle"])
def test_run_path_builds_no_record(monkeypatch, cache_dir, source):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a DynamicInstruction was built")

    for bench in ("gzip", "mcf"):
        prep.get_oracle(bench, LENGTH)  # stores the bundles
    # Installed before any pool forks, so workers inherit it.
    monkeypatch.setattr(DynamicInstruction, "__init__", refuse)

    def fresh():
        _clear()
        if source == "emulation":
            shutil.rmtree(cache_dir / "streams", ignore_errors=True)

    fresh()
    run_simulation("w16", "gzip", max_instructions=LENGTH)
    fresh()
    run_simulation("tc", "gzip", max_instructions=LENGTH,
                   sampling=SAMPLING)
    fresh()
    run_simulation("pr-2x8w", "gzip", max_instructions=LENGTH,
                   checkpoint_every=1000)
    fresh()
    results, _ = run_cosim([(name, None) for name in PAPER_CONFIGS],
                           "gzip", max_instructions=LENGTH,
                           sampling=SAMPLING)
    assert len(results) == len(PAPER_CONFIGS)
    fresh()
    jobs = [SweepJob(config, bench, LENGTH)
            for bench in ("gzip", "mcf") for config in ("w16", "pr-2x8w")]
    report = run_sweep(jobs, workers=2, cache=ResultCache(
        cache_dir / "results"), group_streams=True)
    assert not report.failures
    assert report.stats.get("sweep.cosim_groups") == 2


def test_run_time_stream_bytes_per_instruction(cache_dir):
    length = 120_000
    prep.get_oracle("gzip", length)
    program, packed = pickle.loads(_bundles(cache_dir, "gzip")[0]
                                   .read_bytes())
    columns = pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL)
    del packed
    _clear()
    tracemalloc.start()
    try:
        result = decode_stream(program, pickle.loads(columns))
        shared = SharedStream(result.stream)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / length < 64
    assert len(result.stream) == length
    assert len(shared.oracle) == len(shared.raw_index) > 0.9 * length


def _record_layout(stream, outputs, halted, typecode):
    """*stream* packed record by record, as bundles were packed when the
    emulator built a record list, with address columns of *typecode*."""
    records = list(stream)
    return PackedStream(
        pc=array(typecode, [r.pc for r in records]),
        next_pc=array(typecode, [r.next_pc for r in records]),
        taken=bytes([r.taken for r in records]),
        ea=array(typecode, [r.ea or 0 for r in records]),
        has_ea=bytes([r.ea is not None for r in records]),
        outputs=list(outputs), halted=halted)


def _listed(stream):
    return [list(column) for column in stream.columns()]


@pytest.mark.parametrize("typecode", ["I", "Q"])
def test_bundle_in_the_record_layout_loads(monkeypatch, cache_dir,
                                           typecode):
    program, first, _ = prep.get_oracle("gzip", LENGTH)
    emulated = Machine(program).run(LENGTH)
    assert first.stream == emulated.stream
    expected = [_outcome(run_simulation(
        name, "gzip", max_instructions=LENGTH, sampling=SAMPLING))
        for name in ("w16", "pr-2x8w")]
    bundle = _bundles(cache_dir, "gzip")[0]
    bundle.write_bytes(pickle.dumps(
        (program, _record_layout(emulated.stream, emulated.outputs,
                                 emulated.halted, typecode)),
        protocol=pickle.HIGHEST_PROTOCOL))

    _clear()
    corrupt = prep.PREP_STATS.get("prep.stream_corrupt")
    with monkeypatch.context() as patch:
        def refuse(self, max_instructions):
            raise AssertionError("re-emulated instead of loading")
        patch.setattr(Machine, "run", refuse)
        loaded_program, loaded, _ = prep.get_oracle("gzip", LENGTH)
        results = [_outcome(run_simulation(
            name, "gzip", max_instructions=LENGTH, sampling=SAMPLING))
            for name in ("w16", "pr-2x8w")]
    assert prep.PREP_STATS.get("prep.stream_corrupt") == corrupt
    assert loaded.stream.pc.typecode == typecode
    assert _listed(loaded.stream) == _listed(emulated.stream)
    assert (loaded.outputs, loaded.halted) == (emulated.outputs,
                                               emulated.halted)
    assert loaded.stream.program is loaded_program
    assert results == expected


def _fields(record):
    return (record.index, id(record.inst), record.pc, record.next_pc,
            repr(record.taken), record.ea)


def test_record_view_matches_reference_records():
    program = suite.get_benchmark("gzip")
    stream = Machine(program).run(2000).stream
    reference = ReferenceMachine(program).run(2000).stream
    assert len(stream) == len(reference) == 2000
    for index in (0, 1, 777, 1999, -1, -2, -2000):
        assert _fields(stream[index]) == _fields(reference[index])
    assert ([_fields(r) for r in stream[100:250]]
            == [_fields(r) for r in reference[100:250]])
    assert _fields(stream[100:250][5]) == _fields(reference[105])
    assert ([_fields(r) for r in stream[-50:]]
            == [_fields(r) for r in reference[-50:]])
    assert [_fields(r) for r in stream] == [_fields(r) for r in reference]
    assert stream[2000:] == [] and stream[1990:] != []
    with pytest.raises(IndexError):
        stream[2000]
    with pytest.raises(ValueError):
        stream[::2]


def test_cosim_group_computes_each_carve_liveouts_once(monkeypatch):
    """The warm walk and every sibling's commit carver share the
    stream's live-out memo, so a shape is computed once per stream."""
    monkeypatch.setenv(prep.NO_CACHE_ENV, "1")
    _clear()
    calls = []
    compute = liveout.compute_liveouts

    def counting(instructions):
        calls.append(len(instructions))
        return compute(instructions)

    monkeypatch.setattr(liveout, "compute_liveouts", counting)
    try:
        run_cosim([(name, None) for name in PAPER_CONFIGS], "gzip",
                  max_instructions=LENGTH)
        _, execution, _ = prep.get_oracle("gzip", LENGTH)
        assert calls
        assert len(calls) == len(execution.stream.liveouts)
    finally:
        _clear()


def test_serial_runs_build_the_nop_free_view_once(monkeypatch):
    """Serial runs on one cached stream share one SharedStream, and with
    it the NOP-free view it builds, and give the results of runs on
    fresh streams."""
    configs = ("w16", "tc", "pr-2x8w")
    fresh = []
    for name in configs:
        _clear()
        fresh.append(_outcome(run_simulation(name, "gzip",
                                             max_instructions=LENGTH)))
    _clear()
    built = []
    init = SharedStream.__init__

    def record(self, stream):
        init(self, stream)
        built.append(self)
    monkeypatch.setattr(SharedStream, "__init__", record)
    shared = [_outcome(run_simulation(name, "gzip", max_instructions=LENGTH))
              for name in configs]
    oracle = prep.get_oracle("gzip", LENGTH)[1].stream
    _clear()
    assert len(built) == 1 and oracle.run_state is built[0]
    assert shared == fresh


def test_serial_runs_reuse_the_stream_state(monkeypatch):
    """Only the first of three serial runs on one stream builds fragment
    metadata and walks fragments in bulk; the state dies with the
    stream when the prep caches are cleared."""
    configs = ("w16", "tc", "pr-2x8w")
    length = 20000
    fresh = []
    for name in configs:
        _clear()
        fresh.append(_outcome(run_simulation(name, "gcc",
                                             max_instructions=length)))
    _clear()
    counts = {"meta": 0, "walk": 0}
    meta_init = soa.FragMeta.__init__
    walk = control.walk_fragment

    def count_meta(self, static, cache):
        counts["meta"] += 1
        meta_init(self, static, cache)

    def count_walk(*args, **kwargs):
        counts["walk"] += 1
        return walk(*args, **kwargs)
    monkeypatch.setattr(soa.FragMeta, "__init__", count_meta)
    monkeypatch.setattr(control, "walk_fragment", count_walk)
    per_run = []
    shared = []
    for name in configs:
        before = dict(counts)
        shared.append(_outcome(run_simulation(name, "gcc",
                                              max_instructions=length)))
        per_run.append((counts["meta"] - before["meta"],
                        counts["walk"] - before["walk"]))
    state = weakref.ref(prep.get_oracle("gcc", length)[1].stream.run_state)
    assert per_run == [(585, 598), (1, 5), (0, 6)]
    assert shared == fresh
    prep.clear_prep_caches()
    assert state() is None


def test_shared_decode_counts_each_call_once():
    """A second group on a stream whose decode cache is warm builds no
    entry, so it reports no shared decode."""
    _clear()
    specs = [("w16", None), ("pr-2x8w", None)]
    _, first = run_cosim(specs, "gzip", max_instructions=LENGTH)
    _, second = run_cosim(specs, "gzip", max_instructions=LENGTH)
    cache = prep.get_oracle("gzip", LENGTH)[1].stream.run_state.decode_cache
    _clear()
    assert first["cosim.shared_decode"] == cache.misses > 0
    assert second["cosim.shared_decode"] == 0


def test_serial_sweep_holds_one_stream_at_a_time(cache_dir):
    benchmarks = ("gzip", "vpr", "bzip2")
    jobs = [SweepJob(config, bench, 2000)
            for bench in benchmarks for config in ("w16", "pr-2x8w")]
    held = {}

    def progress(job, result, seconds):
        held.setdefault(job.benchmark, tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        serial = run_sweep(jobs, workers=1, progress=progress,
                           cache=ResultCache(cache_dir / "serial"))
    finally:
        tracemalloc.stop()
    # Each program alone is about 4 MB; kept, they would add up.
    growth = [held[bench] - held[benchmarks[0]] for bench in benchmarks]
    assert max(growth) < 2 * 2 ** 20, growth
    # The final benchmark's stays cached for the caller's next sweep.
    assert all(suite.cached_program(bench) is None
               for bench in benchmarks[:-1])
    assert suite.cached_program(benchmarks[-1]) is not None

    _clear()
    pooled = run_sweep(jobs, workers=2,
                       cache=ResultCache(cache_dir / "pooled"))
    assert not serial.failures and not pooled.failures
    assert ([_outcome(serial.results[job]) for job in jobs]
            == [_outcome(pooled.results[job]) for job in jobs])


def test_next_serial_sweep_on_the_final_stream_reuses_it(monkeypatch,
                                                         cache_dir):
    """Back-to-back serial sweeps on one stream neither reload nor
    re-emulate it."""
    first = run_sweep([SweepJob("w16", "gzip", 2000)], workers=1,
                      cache=ResultCache(cache_dir / "results"))
    program = suite.cached_program("gzip")

    def refuse(*args):
        raise AssertionError("rebuilt the final stream")

    monkeypatch.setattr(Machine, "run", refuse)
    monkeypatch.setattr(prep, "_load_stream_from_disk", refuse)
    second = run_sweep([SweepJob("tc", "gzip", 2000)], workers=1,
                       cache=ResultCache(cache_dir / "results"))
    assert not first.failures and not second.failures
    assert suite.cached_program("gzip") is program is not None
