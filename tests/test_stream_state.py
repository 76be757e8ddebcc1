"""State that is a pure function of the stream exists once per stream.

Three sharing contracts, each bit-identical to building the state per
run:

* warm training keys each trained structure by (stream, role, structure
  config), so the paper configs' four warm digests train one bimodal,
  trace predictor, live-out predictor, L1D and L2, three L1Is and two
  trace caches, and a serial run on the same stream trains only the
  structures it adds (``repro.sampling.prep``);
* a co-sim group's processors walk fragments through one pair of walk
  memos per fragment config, kept across sampled windows
  (``repro.perf.soa.SharedStream``);
* a grouped sweep runs each stream group in a fresh pool worker
  (``repro.experiments.runner``).
"""

import os
from collections import Counter

import pytest

from repro import frontend_config
from repro.config import PAPER_CONFIGS
from repro.core.processor import Processor
from repro.core.simulation import run_simulation
from repro.core.warming import warm_processor
from repro.experiments import runner
from repro.experiments.runner import ResultCache, SweepJob, run_sweep
from repro.frontend import control
from repro.frontend.fragments import carve_stream
from repro.perf.cosim import run_cosim
from repro.predictors.trace_predictor import TracePredictor
from repro.sampling import SamplingConfig, prep
from repro.sampling.prep import clear_prep_caches

from tests.test_sampling import structure_state

LENGTH = 3000
SAMPLING = SamplingConfig(period=4, unit=500, warmup=500)


@pytest.fixture(autouse=True)
def fresh_prep_caches():
    clear_prep_caches()
    yield
    clear_prep_caches()


def result_tuple(result):
    return (result.config_name, result.cycles, result.committed,
            dict(result.counters))


def trains(name):
    return prep.PREP_STATS.get(name)


class TestGroupTraining:
    def test_paper_configs_train_each_structure_once(self, monkeypatch):
        program, execution, key = prep.get_oracle("gzip", LENGTH)
        oracle = execution.stream
        configs = {name: frontend_config(name) for name in PAPER_CONFIGS}
        trained = Counter()
        original = TracePredictor.train

        def counting_train(self, fragment_key):
            trained[id(self)] += 1
            return original(self, fragment_key)

        monkeypatch.setattr(TracePredictor, "train", counting_train)
        before = trains("prep.structure_trains")
        snapshots = prep.warm_group_snapshots(list(configs.values()),
                                              oracle, key, pin=program)
        monkeypatch.undo()

        assert trains("prep.structure_trains") - before == 10
        distinct = {role: {id(getattr(s, role)) for s in snapshots.values()
                           if getattr(s, role) is not None}
                    for role in prep.ROLES}
        assert {role: len(ids) for role, ids in distinct.items()} == {
            "bimodal": 1, "trace_predictor": 1, "liveout_predictor": 1,
            "l1d": 1, "l2": 1, "l1i": 3, "trace_cache": 2}
        # One trace predictor, trained once per carved fragment.
        fragments = sum(1 for _ in carve_stream(oracle,
                                                configs["w16"].fragment))
        assert dict(trained) == {
            next(iter(distinct["trace_predictor"])): fragments}
        w16 = snapshots[prep.snapshot_key(key, configs["w16"])]
        pr = snapshots[prep.snapshot_key(key, configs["pr-2x8w"])]
        assert w16.trace_predictor is pr.trace_predictor
        assert w16.l1i is not pr.l1i

        # Each clone equals training that config alone.
        for name, config in configs.items():
            direct = Processor(config, program, oracle,
                               watchdog=None, invariants=None)
            warm_processor(direct, oracle)
            cloned = Processor(config, program, oracle,
                               watchdog=None, invariants=None)
            prep.warm_from_snapshot(cloned, oracle, key, pin=program,
                                    snapshots=snapshots)
            assert structure_state(cloned) == structure_state(direct), name


class TestSerialReuse:
    def test_second_config_trains_only_what_it_adds(self, monkeypatch):
        cold = {}
        for name in ("w16", "tc"):
            clear_prep_caches()
            cold[name] = run_simulation(name, "gzip",
                                        max_instructions=LENGTH)
        clear_prep_caches()

        built = []
        original = prep._build_structure

        def recording_build(role, spec, stats):
            built.append(role)
            return original(role, spec, stats)

        monkeypatch.setattr(prep, "_build_structure", recording_build)
        first = run_simulation("w16", "gzip", max_instructions=LENGTH)
        assert sorted(built) == sorted(
            ("bimodal", "trace_predictor", "liveout_predictor", "l1i",
             "l1d", "l2"))
        built.clear()
        second = run_simulation("tc", "gzip", max_instructions=LENGTH)
        assert sorted(built) == ["l1i", "trace_cache"]
        assert result_tuple(first) == result_tuple(cold["w16"])
        assert result_tuple(second) == result_tuple(cold["tc"])

    def test_another_stream_drops_the_table(self):
        run_simulation("w16", "gzip", max_instructions=LENGTH)
        run_simulation("w16", "mcf", max_instructions=LENGTH)
        assert prep._warm_table.stream == prep.get_oracle("mcf", LENGTH)[2]
        before = trains("prep.structure_trains")
        run_simulation("w16", "gzip", max_instructions=LENGTH)
        assert trains("prep.structure_trains") - before == 6


class TestWalkMemo:
    def test_sampled_group_walks_each_pure_key_once(self, monkeypatch):
        walks = Counter()
        original = control.walk_fragment

        def counting_walk(program, start, directions, config,
                          fallback=None):
            asked = []

            def asking(pc):
                asked.append(pc)
                return fallback(pc)

            static = original(program, start, directions, config,
                              fallback=asking if fallback else None)
            if not asked:
                walks[(start, tuple(directions))] += 1
            return static

        monkeypatch.setattr(control, "walk_fragment", counting_walk)
        run_cosim([(name, None) for name in PAPER_CONFIGS], "gzip",
                  max_instructions=4 * LENGTH, sampling=SAMPLING)
        assert walks and max(walks.values()) == 1


def _recording_group_task(tasks):
    """``runner._pool_group_task`` that first notes its worker's pid."""
    with open(os.environ["STREAM_STATE_PIDS"], "a") as handle:
        handle.write(f"{os.getpid()} {tasks[0][0].benchmark}\n")
    return _POOL_GROUP_TASK(tasks)


_POOL_GROUP_TASK = runner._pool_group_task


class TestWorkerLifetime:
    def test_each_group_runs_in_a_fresh_worker(self, tmp_path,
                                               monkeypatch):
        pids = tmp_path / "pids.txt"
        monkeypatch.setenv("STREAM_STATE_PIDS", str(pids))
        monkeypatch.setattr(runner, "_pool_group_task",
                            _recording_group_task)
        benchmarks = ("gzip", "mcf", "crafty", "vpr")
        jobs = [SweepJob(config, bench, 2000)
                for bench in benchmarks
                for config in ("w16", "tc", "pr-2x8w")]
        grouped = run_sweep(jobs, workers=2, group_streams=True,
                            cache=ResultCache(tmp_path / "grouped",
                                              enabled=True))
        lines = pids.read_text().split()
        groups = dict(zip(lines[1::2], lines[0::2]))
        assert sorted(groups) == sorted(benchmarks)
        assert len(set(groups.values())) == len(benchmarks)
        assert str(os.getpid()) not in groups.values()

        serial = run_sweep(jobs, workers=1, group_streams=False,
                           cache=ResultCache(tmp_path / "serial",
                                             enabled=True))
        assert not grouped.failures and not serial.failures
        assert ([result_tuple(grouped.results[job]) for job in jobs]
                == [result_tuple(serial.results[job]) for job in jobs])
