"""Direct tests of the rename mechanisms, using small synthetic fragments
against a real out-of-order core."""

from repro.backend.core import OutOfOrderCore
from repro.config import (
    BackEndConfig,
    FragmentConfig,
    LiveOutPredictorConfig,
    MemoryConfig,
)
from repro.core.uop import DecodeCache, PlaceholderProducer
from repro.frontend.buffers import FragmentInFlight
from repro.frontend.fragments import walk_fragment
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.perf.soa import FragMeta
from repro.predictors.liveout import LiveOutPredictor, compute_liveouts
from repro.rename.monolithic import MonolithicRenamer
from repro.rename.parallel import ParallelRenamer
from repro.stats import StatsCollector

CONFIG = FragmentConfig()


def make_core():
    stats = StatsCollector()
    memory = MemoryHierarchy(MemoryConfig(), stats)
    return OutOfOrderCore(BackEndConfig(), memory, stats), stats


def make_fragments(source, starts):
    """Build fully-fetched fragments starting at each symbol in *starts*
    (no oracle records: every uop they rename is on the wrong path)."""
    program = assemble(source)
    fragments = []
    for seq, label in enumerate(starts):
        static = walk_fragment(program, program.symbols[label], (), CONFIG)
        fragment = FragmentInFlight(seq, static.key, static, (), ())
        fragment.soa_meta = FragMeta(static, DecodeCache())
        fragment.fetched_count = static.length
        fragment.complete = True
        fragments.append(fragment)
    return program, fragments


def rename(renamer, now, fragments):
    """One rename cycle; the uops it renamed."""
    renamed, wrong = renamer.cycle(now, fragments)
    assert wrong == len(renamed)
    return renamed


TWO_FRAGMENT_SOURCE = """
f0:
    addi t0, zero, 1
    addi t1, zero, 2
    add  t2, t0, t1
    jr   t2
f1:
    add  t3, t2, t0
    sub  t4, t3, t1
    jr   t4
"""


class TestMonolithicRenamer:
    def test_renames_in_order_and_links(self):
        core, stats = make_core()
        renamer = MonolithicRenamer(16, core, stats)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0", "f1"])
        renamed = rename(renamer, 1, fragments)
        assert len(renamed) == 7
        # f1's `add t3, t2, t0` must point at f0's producers.
        cross = fragments[1].uops[0]
        producers = {p.inst.dest_reg() for p in cross.sources}
        assert producers == {8, 10}  # t0, t2

    def test_width_limit(self):
        core, stats = make_core()
        renamer = MonolithicRenamer(3, core, stats)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0", "f1"])
        assert len(rename(renamer, 1, fragments)) == 3
        assert len(rename(renamer, 2, fragments)) == 3

    def test_cannot_skip_unfetched_oldest(self):
        core, stats = make_core()
        renamer = MonolithicRenamer(16, core, stats)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0", "f1"])
        fragments[0].fetched_count = 2  # f0 only partially fetched
        fragments[0].complete = False
        renamed = rename(renamer, 1, fragments)
        assert len(renamed) == 2  # stops at the unfetched instruction
        assert all(u.fragment_seq == 0 for u in renamed)

    def test_window_full_stalls(self):
        core, stats = make_core()
        core.reserve(BackEndConfig().window_size, fragment_seq=99)
        renamer = MonolithicRenamer(16, core, stats)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0"])
        assert rename(renamer, 1, fragments) == []
        assert stats.get("rename.window_stalls") == 1


class TestParallelRenamer:
    def make_renamer(self, core, stats, renamers=2, width=8,
                     predictor=None):
        predictor = predictor or LiveOutPredictor(
            LiveOutPredictorConfig(), stats)
        return ParallelRenamer(renamers, width, core, predictor, stats), \
            predictor

    def test_cold_fragment_serialises_through_placeholders(self):
        core, stats = make_core()
        renamer, _ = self.make_renamer(core, stats, renamers=2, width=4)
        # A long cold f0 so it is still renaming when f1 starts.
        source = ("f0:\n" + "\n".join(["    addi t0, t0, 1"] * 11)
                  + "\n    jr t0\n"
                  + "f1:\n    add t3, t0, t1\n    jr t3\n")
        _, fragments = make_fragments(source, ["f0", "f1"])
        rename(renamer, 1, fragments)   # phase1+start f0
        rename(renamer, 2, fragments)   # phase1 f1, both run
        assert not fragments[0].rename_done
        assert fragments[1].uops, "f1 renamed in parallel with cold f0"
        cross = fragments[1].uops[0]
        placeholders = [p for p in cross.sources
                        if isinstance(p, PlaceholderProducer)]
        assert placeholders
        assert all(p.producer is None and not p.ready
                   for p in placeholders)
        rename(renamer, 3, fragments)
        rename(renamer, 4, fragments)
        assert fragments[0].rename_done and fragments[1].rename_done
        assert stats.get("rename.liveout_cold") == 2
        # Cold placeholders resolved once f0's rename completed.
        assert all(p.producer is not None or p.ready
                   for p in placeholders)

    def test_predicted_fragment_binds_last_writes(self):
        core, stats = make_core()
        predictor = LiveOutPredictor(LiveOutPredictorConfig(), stats)
        program, fragments = make_fragments(TWO_FRAGMENT_SOURCE,
                                            ["f0", "f1"])
        # Pre-train the predictor with ground truth for both fragments.
        for fragment in fragments:
            predictor.train(fragment.key, compute_liveouts(
                fragment.static_frag.instructions))
        renamer, _ = self.make_renamer(core, stats, predictor=predictor)
        for cycle in range(1, 5):
            rename(renamer, cycle, fragments)
        assert fragments[0].rename_done and fragments[1].rename_done
        assert stats.get("rename.liveout_mispredicts") == 0
        # Every placeholder of f0 bound to the actual last writer.
        for reg, placeholder in fragments[0].placeholders.items():
            assert placeholder.producer is not None
            assert placeholder.producer.inst.dest_reg() == reg

    def test_phase1_is_one_fragment_per_cycle(self):
        core, stats = make_core()
        renamer, predictor = self.make_renamer(core, stats)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0", "f1"])
        for fragment in fragments:
            predictor.train(fragment.key, compute_liveouts(
                fragment.static_frag.instructions))
        rename(renamer, 1, fragments)
        assert fragments[0].phase1_done and not fragments[1].phase1_done
        rename(renamer, 2, fragments)
        assert fragments[1].phase1_done

    def test_wrong_liveout_prediction_detected(self):
        core, stats = make_core()
        predictor = LiveOutPredictor(LiveOutPredictorConfig(), stats)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0", "f1"])
        truth = compute_liveouts(fragments[0].static_frag.instructions)
        # Claim t7 (never written) is a live-out and drop t2's last write:
        # condition 4 (no last write for a predicted live-out) must fire.
        from repro.predictors.liveout import LiveOutInfo
        wrong = LiveOutInfo(truth.liveout_regs | (1 << 15),
                            truth.last_writes, truth.length)
        predictor.train(fragments[0].key, wrong)
        renamer, _ = self.make_renamer(core, stats, predictor=predictor)
        for cycle in range(1, 4):
            rename(renamer, cycle, fragments)
        assert stats.get("rename.liveout_mispredicts") == 1
        assert fragments[0].liveout_mispredicted

    def test_window_reservation_per_fragment_length(self):
        core, stats = make_core()
        renamer, _ = self.make_renamer(core, stats)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0"])
        rename(renamer, 1, fragments)
        assert core.window_free == \
            BackEndConfig().window_size - fragments[0].length

    def test_rename_rate_with_two_renamers(self):
        """Two 8-wide renamers rename two fragments concurrently."""
        core, stats = make_core()
        source = "\n".join(
            [f"g{i}:\n" + "\n".join(["    add t0, t0, t1"] * 7)
             + "\n    jr t0" for i in range(3)])
        _, fragments = make_fragments(source, ["g0", "g1", "g2"])
        renamer, predictor = self.make_renamer(core, stats)
        for fragment in fragments:
            predictor.train(fragment.key, compute_liveouts(
                fragment.static_frag.instructions))
        rename(renamer, 1, fragments)   # phase1 g0, rename g0
        renamed = rename(renamer, 2, fragments)
        # Cycle 2: g0 (second renamer slot free) and g1 in flight.
        assert len({u.fragment_seq for u in renamed}) >= 1
        total = []
        for cycle in range(3, 8):
            total.extend(rename(renamer, cycle, fragments))
        assert all(f.rename_done for f in fragments)


class TestDelayRenamer:
    """The paper's solution 1: no live-out prediction; every fragment
    forwards pass-through placeholders."""

    def test_no_predictor_lookups(self):
        core, stats = make_core()
        predictor = LiveOutPredictor(LiveOutPredictorConfig(), stats)
        renamer = ParallelRenamer(2, 8, core, predictor, stats,
                                  use_liveout_prediction=False)
        _, fragments = make_fragments(TWO_FRAGMENT_SOURCE, ["f0", "f1"])
        for cycle in range(1, 5):
            rename(renamer, cycle, fragments)
        assert all(f.rename_done for f in fragments)
        assert stats.get("rename.liveout_lookups") == 0
        assert stats.get("rename.delay_fragments") == 2
        # Delay mode can never mispredict live-outs.
        assert stats.get("rename.liveout_mispredicts") == 0

    def test_end_to_end_delay_configs(self):
        from repro import run_simulation
        for config in ("pd-2x8w", "pd-4x4w"):
            result = run_simulation(config, "gzip", max_instructions=3000)
            assert not result.timed_out
            assert result.counter("rename.delay_fragments") > 0

    def test_delay_waits_more_than_prediction(self):
        """Solution 1 delays consumers behind producing fragments, so more
        instructions rename before their source mapping resolves."""
        from repro import run_simulation
        pr = run_simulation("pr-2x8w", "gcc", max_instructions=5000)
        pd = run_simulation("pd-2x8w", "gcc", max_instructions=5000)
        assert pd.renamed_before_source_fraction > \
            pr.renamed_before_source_fraction


class TestSelectiveReexecution:
    """Section 4.3's alternative recovery: repair and re-execute only the
    incorrectly renamed instructions."""

    def _run(self, config_name, bench, recovery, n=6000):
        import dataclasses
        from repro import frontend_config, run_simulation
        config = frontend_config(config_name)
        config = config.replace(frontend=dataclasses.replace(
            config.frontend, liveout_recovery=recovery))
        return run_simulation(config, bench, max_instructions=n,
                              config_name=f"{config_name}/{recovery}")

    def test_reexecute_commits_full_stream(self):
        for bench in ("gzip", "gcc"):
            result = self._run("pr-4x4w", bench, "reexecute")
            assert not result.timed_out
            squash = self._run("pr-4x4w", bench, "squash")
            assert result.committed == squash.committed

    def test_reexecute_repairs_instead_of_squashing(self):
        result = self._run("pr-4x4w", "gzip", "reexecute")
        if result.counter("rename.liveout_mispredicts"):
            assert result.counter("rename.liveout_squashes") == 0
            assert result.counter("rename.liveout_reexec_events") > 0

    def test_no_wakeup_by_unlisted_producer(self, monkeypatch):
        """A re-dispatched uop leaves its old producers' wait lists: no
        WAITING uop may be woken by a producer none of its sources
        resolves to (the wakeup would lower ``pending`` for a source it
        no longer has and could make it READY early)."""
        from repro.backend.core import OutOfOrderCore
        from repro.core.uop import UopState

        def resolve(source):
            while isinstance(source, PlaceholderProducer) \
                    and source.producer is not None:
                source = source.producer
            return source

        stale = []
        complete = OutOfOrderCore._complete

        def probe(core, now):
            # Every producer finishing now wakes its listed consumers.
            for producer in core._completions.get(now, ()):
                if producer.state is not UopState.EXECUTING:
                    continue
                stale.extend(
                    consumer.seq for consumer in producer.consumers
                    if consumer.state is UopState.WAITING
                    and not any(resolve(s) is producer
                                for s in consumer.sources))
            return complete(core, now)

        monkeypatch.setattr(OutOfOrderCore, "_complete", probe)
        result = self._run("pr-4x4w", "gcc", "reexecute", n=3000)
        assert result.counter("rename.reexecuted_uops") > 0
        assert stale == []

    def test_no_completion_before_its_own_issue(self, monkeypatch):
        """A re-dispatched uop completes only through the event its own
        issue scheduled: none may finish while it still sits in a later
        completion bucket (the old issue's event would finish it early).
        On pr-2x8w/gcc at 30 000 instructions one uop used to."""
        from repro.backend.core import OutOfOrderCore
        from repro.core.uop import UopState

        early = []
        complete = OutOfOrderCore._complete

        def probe(core, now):
            finishing = {id(uop) for uop in core._completions.get(now, ())
                         if uop.state is UopState.EXECUTING}
            early.extend(
                (uop.seq, now, due)
                for due, bucket in core._completions.items() if due > now
                for uop in bucket if id(uop) in finishing)
            return complete(core, now)

        monkeypatch.setattr(OutOfOrderCore, "_complete", probe)
        result = self._run("pr-2x8w", "gcc", "reexecute", n=30_000)
        assert result.counter("rename.reexecuted_uops") > 0
        assert early == []

    def test_reexecute_never_slower_by_much(self):
        """The paper: squashing is acceptable when misprediction rates are
        low; re-execution should be a small refinement either way."""
        squash = self._run("pr-4x4w", "gcc", "squash")
        reexec = self._run("pr-4x4w", "gcc", "reexecute")
        assert reexec.ipc > 0.9 * squash.ipc

    def test_config_validation(self):
        import pytest
        from repro.config import FrontEndConfig
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            FrontEndConfig(liveout_recovery="bogus")
