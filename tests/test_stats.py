"""Tests for counters, means, and table formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.stats import (
    StatsCollector,
    arithmetic_mean,
    format_table,
    geometric_mean,
    harmonic_mean,
    percent_speedup,
    series_table,
    speedup,
)


class TestStatsCollector:
    def test_default_zero(self):
        stats = StatsCollector()
        assert stats.get("nothing") == 0.0
        assert "nothing" not in stats

    def test_add_and_set(self):
        stats = StatsCollector()
        stats.add("a")
        stats.add("a", 2)
        stats.set("b", 10)
        assert stats["a"] == 3
        assert stats["b"] == 10

    def test_ratio_handles_zero_denominator(self):
        stats = StatsCollector()
        stats.add("num", 5)
        assert stats.ratio("num", "denom") == 0.0
        stats.add("denom", 2)
        assert stats.ratio("num", "denom") == 2.5

    def test_reset_leaves_no_phantom_entries(self):
        stats = StatsCollector()
        stats.add("fetch.insts", 10)
        stats.set("l1i.fills", 3)
        stats.reset()
        assert "fetch.insts" not in stats
        assert stats.as_dict() == {}
        assert stats.with_prefix("l1i") == {}
        assert stats.get("fetch.insts") == 0.0

    def test_clear_is_reset(self):
        stats = StatsCollector()
        stats.add("a")
        stats.clear()
        assert "a" not in stats

    def test_with_prefix(self):
        stats = StatsCollector()
        stats.add("fetch.insts", 10)
        stats.add("fetch.slots", 20)
        stats.add("rename.insts", 5)
        assert set(stats.with_prefix("fetch")) == {"fetch.insts",
                                                   "fetch.slots"}

    def test_merge(self):
        a, b = StatsCollector(), StatsCollector()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a.merge(b)
        assert a["x"] == 3 and a["y"] == 3

    def test_merge_overwrites_gauges(self):
        # Regression: gauges written with set() used to sum on merge,
        # so e.g. sweep.workers accumulated across sweeps.
        a, b = StatsCollector(), StatsCollector()
        a.set("sweep.workers", 8)
        a.add("sweep.jobs", 1)
        b.set("sweep.workers", 4)
        b.add("sweep.jobs", 2)
        a.merge(b)
        assert a["sweep.workers"] == 4  # last writer wins
        assert a["sweep.jobs"] == 3     # counters still sum

    def test_merge_gauges_stable_across_repeats(self):
        total = StatsCollector()
        for _ in range(3):
            sweep = StatsCollector()
            sweep.set("sweep.workers", 8)
            sweep.set("sweep.utilization", 0.9)
            total.merge(sweep)
        assert total["sweep.workers"] == 8
        assert total["sweep.utilization"] == 0.9

    def test_merge_takes_max_of_highwater_marks(self):
        a, b, c = StatsCollector(), StatsCollector(), StatsCollector()
        a.maximum("sweep.max_attempts", 3)
        b.maximum("sweep.max_attempts", 2)
        c.maximum("sweep.max_attempts", 5)
        a.merge(b)
        assert a["sweep.max_attempts"] == 3
        a.merge(c)
        assert a["sweep.max_attempts"] == 5

    def test_reset_forgets_gauge_classification(self):
        a = StatsCollector()
        a.set("g", 1)
        a.reset()
        a.add("g", 2)
        b = StatsCollector()
        b.add("g", 3)
        b.merge(a)
        assert b["g"] == 5  # "g" is a plain counter again after reset


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1, 2, 3]) == 2

    def test_harmonic_known_value(self):
        assert harmonic_mean([1, 2]) == pytest.approx(4 / 3)

    def test_harmonic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean([1, 0])

    def test_geometric_known_value(self):
        assert geometric_mean([1, 4]) == pytest.approx(2)

    def test_empty_rejected(self):
        for fn in (arithmetic_mean, harmonic_mean, geometric_mean):
            with pytest.raises(ValueError):
                fn([])

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=2,
                    max_size=20))
    def test_mean_inequality(self, values):
        # HM <= GM <= AM always.
        assert harmonic_mean(values) <= geometric_mean(values) + 1e-9
        assert geometric_mean(values) <= arithmetic_mean(values) + 1e-9

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        assert percent_speedup(1.1, 1.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.5], ["long-name", 20.25]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]
        assert "1.500" in text

    def test_series_table(self):
        text = series_table("Figure X", "size", [8, 16],
                            {"tc": [1.0, 2.0], "pr": [3.0, 4.0]})
        assert text.startswith("Figure X")
        assert "tc" in text and "pr" in text and "16" in text


class TestThreadSafeStatsCollector:
    """The cross-thread collector variant SWEEP_STATS, PREP_STATS and
    CHECKPOINT_STATS use (plain StatsCollector stays lock-free for the
    thread-confined per-simulation hot path)."""

    THREADS = 8
    PER_THREAD = 10_000

    def _run_threads(self, target):
        import threading

        workers = [threading.Thread(target=target)
                   for _ in range(self.THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    def test_concurrent_adds_are_exact(self):
        from repro.stats import ThreadSafeStatsCollector

        stats = ThreadSafeStatsCollector()

        def work():
            for _ in range(self.PER_THREAD):
                stats.add("hits")

        self._run_threads(work)
        assert stats.get("hits") == self.THREADS * self.PER_THREAD

    def test_concurrent_merges_are_exact(self):
        from repro.stats import StatsCollector, ThreadSafeStatsCollector

        stats = ThreadSafeStatsCollector()
        delta = StatsCollector()
        delta.add("jobs", 1)

        def work():
            for _ in range(500):
                stats.merge(delta)

        self._run_threads(work)
        assert stats.get("jobs") == self.THREADS * 500

    def test_concurrent_maximum_keeps_high_water_mark(self):
        from repro.stats import ThreadSafeStatsCollector

        stats = ThreadSafeStatsCollector()

        def work():
            for value in range(1000):
                stats.maximum("peak", value)

        self._run_threads(work)
        assert stats.get("peak") == 999

    def test_reads_during_writes_are_consistent(self):
        from repro.stats import ThreadSafeStatsCollector

        stats = ThreadSafeStatsCollector()
        snapshots = []

        def writer():
            for _ in range(2000):
                stats.add("n")

        def reader():
            for _ in range(200):
                view = stats.as_dict()
                snapshots.append(view.get("n", 0.0))
                list(stats.items())
                stats.with_prefix("n")

        import threading

        threads = ([threading.Thread(target=writer) for _ in range(4)]
                   + [threading.Thread(target=reader) for _ in range(4)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.get("n") == 4 * 2000
        # Snapshots taken mid-write must be internally consistent
        # (monotone non-decreasing counts, never out of range).
        assert all(0 <= value <= 8000 for value in snapshots)

    def test_semantics_match_base_collector(self):
        from repro.stats import StatsCollector, ThreadSafeStatsCollector

        plain, safe = StatsCollector(), ThreadSafeStatsCollector()
        for stats in (plain, safe):
            stats.add("a", 2)
            stats.set("gauge", 7)
            stats.maximum("peak", 3)
            stats.maximum("peak", 1)
            other = StatsCollector()
            other.add("a", 1)
            other.set("gauge", 9)
            stats.merge(other)
        assert plain.as_dict() == safe.as_dict()

    def test_reset_and_clear_alias(self):
        from repro.stats import ThreadSafeStatsCollector

        stats = ThreadSafeStatsCollector()
        stats.add("x")
        stats.reset()
        assert "x" not in stats
        stats.add("y")
        stats.clear()
        assert stats.as_dict() == {}


class TestStateRoundTrip:
    """``state()``/``restore_state()`` — the checkpoint serialization
    seam: a restored collector must be indistinguishable, gauge and
    high-water semantics included."""

    def _populated(self, cls):
        stats = cls()
        stats.add("counter", 5)
        stats.set("gauge", 7)
        stats.maximum("peak", 3)
        return stats

    def test_round_trip_preserves_semantics(self):
        from repro.stats import StatsCollector

        donor = self._populated(StatsCollector)
        clone = StatsCollector()
        clone.restore_state(donor.state())
        assert clone.as_dict() == donor.as_dict()
        # Gauge/high-water behaviour survives the round trip.
        clone.set("gauge", 2)
        assert clone.get("gauge") == 2
        clone.maximum("peak", 1)
        assert clone.get("peak") == 3

    def test_state_is_a_snapshot_not_a_view(self):
        from repro.stats import StatsCollector

        donor = self._populated(StatsCollector)
        state = donor.state()
        donor.add("counter", 100)
        clone = StatsCollector()
        clone.restore_state(state)
        assert clone.get("counter") == 5

    def test_thread_safe_round_trip(self):
        from repro.stats import StatsCollector, ThreadSafeStatsCollector

        donor = self._populated(ThreadSafeStatsCollector)
        clone = StatsCollector()
        clone.restore_state(donor.state())
        assert clone.as_dict() == donor.as_dict()

    def test_restore_overwrites_existing_state(self):
        from repro.stats import StatsCollector

        target = StatsCollector()
        target.add("stale", 9)
        target.restore_state(self._populated(StatsCollector).state())
        assert "stale" not in target
        assert target.get("counter") == 5
