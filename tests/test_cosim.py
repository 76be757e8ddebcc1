"""The co-simulation engine's bit-identity and isolation contracts.

``repro.perf.cosim`` advances N timing configs over one shared prepared
stream, sharing only state that is a pure function of the stream (decode
cache, SoA tables, warm-snapshot training, gap touch lists).  The
license for all of that sharing is bit identity: every co-simulated
result — counters included — must equal the serial
``run_simulation(config, ...)`` result in full-detail, observability-on
and sampled modes, and damaging one sibling's private state must never
leak into another's result.  The sweep runner's integration (grouped
jobs become one co-sim batch) must likewise leave reports bit-identical
with or without grouping.
"""

import pytest

from repro.core.simulation import run_simulation
from repro.frontend.fragments import FragmentKey
from repro.isa.program import DATA_BASE, TEXT_BASE
from repro.perf.cosim import run_cosim
from repro.predictors.liveout import LiveOutInfo
from repro.sampling import SamplingConfig
from repro.sampling.prep import clear_prep_caches

LENGTH = 6000
SAMPLED_LENGTH = 24000
SAMPLING = SamplingConfig(period=4, unit=500, warmup=500)
CONFIGS = ("w16", "tc", "pf-2x8w", "pr-2x8w")


@pytest.fixture(autouse=True)
def fresh_prep_caches():
    """Each test starts cold so sharing happens inside the test."""
    clear_prep_caches()
    yield
    clear_prep_caches()


def result_tuple(result):
    return (result.config_name, result.cycles, result.committed,
            dict(result.counters))


def serial_reference(configs, benchmark, length, **kwargs):
    """Per-config serial runs, prep caches cleared between configs."""
    results = []
    for name in configs:
        clear_prep_caches()
        results.append(run_simulation(name, benchmark,
                                      max_instructions=length, **kwargs))
    clear_prep_caches()
    return results


class TestFullDetailParity:
    def test_bit_identical_to_serial(self):
        serial = serial_reference(CONFIGS, "gzip", LENGTH)
        results, savings = run_cosim([(name, None) for name in CONFIGS],
                                     "gzip", max_instructions=LENGTH)
        assert ([result_tuple(r) for r in results]
                == [result_tuple(r) for r in serial])
        assert savings["cosim.jobs"] == len(CONFIGS)

    def test_shared_decode_counted(self):
        _, savings = run_cosim([(name, None) for name in CONFIGS],
                               "gzip", max_instructions=LENGTH)
        # Tier >= 1 shares one decode cache: every miss-built entry is
        # served to the other n-1 siblings.
        assert savings.get("cosim.shared_decode", 0) > 0

    def test_duplicate_config_members_agree(self):
        results, _ = run_cosim([("w16", "a"), ("w16", "b")], "gzip",
                               max_instructions=LENGTH)
        assert results[0].cycles == results[1].cycles
        assert results[0].counters == results[1].counters

    def test_each_warm_digest_trains_once(self):
        """A group of ten warm digests counts each digest trained once
        and trains each distinct structure once — one bimodal, trace
        predictor, live-out predictor, L1D and L2, six L1I geometries
        and five trace caches — and every sibling equals its serial
        run."""
        from repro.config import frontend_config
        from repro.experiments.sweeps import FIG9_STORAGES
        from repro.sampling import prep

        specs = [(frontend_config(name, total_l1_storage=storage),
                  f"{name}-{storage // 1024}k")
                 for name in ("w16", "tc") for storage in FIG9_STORAGES]
        serial = []
        for config, label in specs:
            clear_prep_caches()
            serial.append(run_simulation(config, "gzip", config_name=label,
                                         max_instructions=LENGTH))
        clear_prep_caches()
        before = prep.PREP_STATS.as_dict()
        results, savings = run_cosim(specs, "gzip", max_instructions=LENGTH)
        after = prep.PREP_STATS.as_dict()
        trains = (after["prep.snapshot_trains"]
                  - before.get("prep.snapshot_trains", 0.0))
        assert trains == len(specs) == savings["prep.snapshot_trains"]
        structures = (after["prep.structure_trains"]
                      - before.get("prep.structure_trains", 0.0))
        assert structures == 5 + 6 + 5 == savings["prep.structure_trains"]
        assert ([result_tuple(r) for r in results]
                == [result_tuple(r) for r in serial])

    def test_empty_specs(self):
        results, savings = run_cosim([], "gzip", max_instructions=LENGTH)
        assert results == [] and savings == {}


class TestSampledParity:
    @pytest.mark.parametrize("warm", (True, False))
    def test_bit_identical_to_serial(self, warm):
        serial = serial_reference(CONFIGS, "gzip", SAMPLED_LENGTH,
                                  warm=warm, sampling=SAMPLING)
        results, savings = run_cosim(
            [(name, None) for name in CONFIGS], "gzip",
            max_instructions=SAMPLED_LENGTH, warm=warm, sampling=SAMPLING)
        assert ([result_tuple(r) for r in results]
                == [result_tuple(r) for r in serial])
        if warm:
            # Warm gaps fast-forward once for the whole group.
            assert savings.get("cosim.gap_insts_shared", 0) > 0

    def test_state_damage_does_not_leak_across_siblings(self):
        """Trashing one sibling's private state mid-run leaves the
        others bit-identical to serial — the cross-config isolation
        contract that licenses running them over one stream.  The
        victim is a second TC sibling, so every warm structure it
        damages (caches, bimodal table, trace and live-out predictors,
        trace cache) was cloned from a donor another sibling shares."""
        serial = serial_reference(CONFIGS, "gzip", SAMPLED_LENGTH,
                                  sampling=SAMPLING)

        def trash_first_sibling(ui, processors):
            victim = processors[0]
            for i in range(8):
                # Two junk lines 1 and 2 MB above the program's code
                # and data: they share sets of every cache with it.
                for base in (TEXT_BASE, DATA_BASE):
                    for alias in (1 << 20, 2 << 20):
                        addr = base + alias + (ui * 8 + i) * 64
                        victim.memory.l2.fill(addr)
                        victim.memory.l1i.fill(addr)
                        victim.memory.l1d.fill(addr)
                addr = 0xDEAD0000 + (ui * 8 + i) * 64
                victim.bimodal.train(addr, bool(i & 1))
                junk = FragmentKey(addr, (bool(i & 1),))
                victim.trace_predictor.train(junk)
                victim.liveout_predictor.train(
                    junk, LiveOutInfo(0xFFFE, 0xFFFF, 16))
                victim.trace_cache.insert(junk)

        clear_prep_caches()
        results, _ = run_cosim(
            [("tc", "victim")] + [(name, None) for name in CONFIGS],
            "gzip", max_instructions=SAMPLED_LENGTH, sampling=SAMPLING,
            unit_hook=trash_first_sibling)
        assert ([result_tuple(r) for r in results[1:]]
                == [result_tuple(r) for r in serial])


class TestObservabilityParity:
    @staticmethod
    def stable(counters):
        # obs.profile.* second counters are wall clock, not simulation
        # state; everything else must match bit for bit.
        return {name: value for name, value in counters.items()
                if not (name.startswith("obs.profile.")
                        and name.endswith("seconds"))}

    @pytest.mark.parametrize("sampling", (False, SAMPLING),
                             ids=("full", "sampled"))
    def test_obs_counters_identical(self, monkeypatch, sampling):
        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        monkeypatch.setenv("REPRO_OBS_PROFILE", "1")
        length = SAMPLED_LENGTH if sampling else LENGTH
        serial = serial_reference(CONFIGS[:2], "gzip", length,
                                  sampling=sampling)
        results, _ = run_cosim([(name, None) for name in CONFIGS[:2]],
                               "gzip", max_instructions=length,
                               sampling=sampling)
        for expected, actual in zip(serial, results):
            assert expected.cycles == actual.cycles
            assert (self.stable(expected.counters)
                    == self.stable(actual.counters))


class TestSweepIntegration:
    """Grouping and co-simulation must be invisible in sweep reports."""

    JOBS_LENGTH = 2500

    @pytest.fixture(autouse=True)
    def hermetic_env(self, monkeypatch):
        from repro import faults
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        monkeypatch.delenv("REPRO_SWEEP_GROUP", raising=False)

    def make_jobs(self, sampling=None):
        from repro.experiments.runner import SweepJob
        return [SweepJob(config_name=name, benchmark=bench,
                         length=self.JOBS_LENGTH, sampling=sampling)
                for bench in ("gzip", "mcf") for name in CONFIGS]

    def run(self, jobs, **kwargs):
        from repro.experiments.runner import ResultCache, run_sweep
        clear_prep_caches()
        report = run_sweep(jobs, cache=ResultCache(enabled=False),
                           **kwargs)
        assert not report.failures, report.failures
        return report

    @pytest.mark.parametrize("sampling", (None, (4, 400, 400)),
                             ids=("full", "sampled"))
    def test_grouped_report_identity(self, sampling):
        jobs = self.make_jobs(sampling)
        ungrouped = self.run(jobs, workers=1, group_streams=False)
        grouped = self.run(jobs, workers=1, group_streams=True)
        for job in jobs:
            assert (result_tuple(grouped.results[job])
                    == result_tuple(ungrouped.results[job]))
        assert grouped.stats.get("sweep.cosim_groups") == 2
        assert grouped.stats.get("sweep.cosim_jobs") == len(jobs)
        assert ungrouped.stats.get("sweep.cosim_groups") == 0

    def test_pool_path_identity_and_savings(self):
        jobs = self.make_jobs()
        serial = self.run(jobs, workers=1, group_streams=False)
        pooled = self.run(jobs, workers=2, group_streams=True)
        for job in jobs:
            assert (result_tuple(pooled.results[job])
                    == result_tuple(serial.results[job]))
        if not pooled.stats.get("sweep.degraded"):
            # Workers are separate processes: the savings counters must
            # travel back through the group task's return value.
            assert pooled.stats.get("sweep.cosim_groups") == 2
            assert pooled.stats.get("sweep.cosim_shared_decode") > 0

    def test_checkpointed_jobs_not_cosimulated(self):
        from repro.experiments.runner import SweepJob
        jobs = [SweepJob(config_name=name, benchmark="gzip",
                         length=self.JOBS_LENGTH, checkpoint=1000)
                for name in CONFIGS[:2]]
        report = self.run(jobs, workers=1, group_streams=True)
        assert report.stats.get("sweep.cosim_groups") == 0
        assert len(report.results) == len(jobs)

    def test_summary_reports_cosim_lines(self):
        jobs = self.make_jobs()[:4]
        report = self.run(jobs, workers=1, group_streams=True)
        summary = report.summary()
        assert "cosim groups  1 (4 jobs)" in summary
        assert "cosim shared  decode=" in summary
        without = self.run(jobs, workers=1, group_streams=False)
        assert "cosim" not in without.summary()


class TestSharedStreamGuard:
    def test_processor_state_matches_its_oracle(self):
        """A processor takes its shared state from its own oracle, so a
        slice of a stream gets the slice's state, never the whole
        stream's."""
        from repro.config import frontend_config
        from repro.core.processor import Processor
        from repro.sampling import prep

        program, execution, _ = prep.get_oracle("gzip", LENGTH)
        whole = Processor(frontend_config("w16"), program, execution.stream)
        short = execution.stream[:LENGTH // 2]
        part = Processor(frontend_config("w16"), program, short)
        assert whole.shared is execution.stream.run_state
        assert part.shared is short.run_state
        assert part.shared is not whole.shared
        assert part.stream_length < whole.stream_length
