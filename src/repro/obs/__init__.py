"""Opt-in simulator observability (:class:`ObservabilityConfig`).

Three pillars, all off by default and near-free when disabled:

* :class:`~repro.obs.metrics.MetricsRecorder` — cycle-sampled gauges
  (buffer occupancy, window fill, busy sequencers, rename/dispatch
  queue depth, in-flight fragments) in ring-buffered time series with
  running min/mean/max/histogram summaries;
* :class:`~repro.obs.tracing.EventTracer` — pipeline lifecycle events
  exported as Chrome trace-event JSON for Perfetto/``chrome://tracing``;
* :class:`~repro.obs.profiling.PhaseProfiler` — simulator wall-clock
  attributed to pipeline phases.

Usage::

    from repro.config import ObservabilityConfig
    from repro.obs import Observability

    obs = Observability(ObservabilityConfig(sample_interval=100,
                                            trace=True))
    result = run_simulation("pr-2x8w", "gcc", observability=obs)
    payload = obs.tracer.export(process_name="pr-2x8w/gcc")

A fourth, independent piece — :class:`~repro.obs.live.LiveTelemetry` —
publishes read-only snapshots of a *running* simulation to a status
file for ``repro attach``; it is configured by :class:`LiveConfig`
rather than :class:`ObservabilityConfig` because it also runs in
checkpointed mode, which takes no pillar (and sampled mode takes no
metrics sampling).

Environment knobs (read by :meth:`ObservabilityConfig.from_env`, which
the default ``run_simulation`` path consults): ``REPRO_OBS_SAMPLE``
(gauge sample interval in cycles), ``REPRO_OBS_TRACE`` (truthy, or a
path to auto-export the trace to), ``REPRO_OBS_PROFILE`` (truthy).  The
ring capacity and the trace event cap are set on the config only
(defaults 4096 samples and 200 000 events; ``repro trace --limit`` sets
the cap).
Live telemetry reads ``REPRO_LIVE``, ``REPRO_LIVE_PATH`` and
``REPRO_LIVE_EVERY`` (see :meth:`LiveConfig.from_env`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.config import LiveConfig, ObservabilityConfig
from repro.obs.live import (
    LiveTelemetry,
    SweepFleet,
    read_snapshots,
    validate_snapshot,
)
from repro.obs.metrics import MetricsRecorder, TimeSeries
from repro.obs.profiling import PhaseProfiler
from repro.obs.tracing import EventTracer, validate_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.processor import Processor
    from repro.stats import StatsCollector

__all__ = [
    "Observability",
    "ObservabilityConfig",
    "LiveConfig",
    "LiveTelemetry",
    "SweepFleet",
    "MetricsRecorder",
    "TimeSeries",
    "EventTracer",
    "PhaseProfiler",
    "read_snapshots",
    "validate_chrome_trace",
    "validate_snapshot",
]


class Observability:
    """Bundles the three pillars for one simulation run."""

    def __init__(self, config: Optional[ObservabilityConfig] = None):
        self.config = config or ObservabilityConfig()
        self.tracer: Optional[EventTracer] = (
            EventTracer(limit=self.config.trace_limit)
            if self.config.trace else None)
        self.metrics: Optional[MetricsRecorder] = (
            MetricsRecorder(self.config.sample_interval,
                            capacity=self.config.ring_capacity,
                            tracer=self.tracer)
            if self.config.sample_interval else None)
        self.profiler: Optional[PhaseProfiler] = (
            PhaseProfiler() if self.config.profile else None)

    @property
    def enabled(self) -> bool:
        """Whether any pillar (metrics/tracing/profiling) is active."""
        return (self.metrics is not None or self.tracer is not None
                or self.profiler is not None)

    @classmethod
    def from_env(cls) -> Optional["Observability"]:
        """An instance per ``REPRO_OBS_*``, or None when all knobs are
        off — so the default simulation path allocates nothing."""
        config = ObservabilityConfig.from_env()
        return cls(config) if config.enabled else None

    def finalize(self, processor: "Processor",
                 stats: Optional["StatsCollector"] = None) -> None:
        """Fold summaries into *stats* (default: the processor's own)
        and auto-export the trace.

        Called by ``Processor.stamp_summary`` when a run finishes, so
        every counter lands in the
        :class:`~repro.core.simulation.SimulationResult`; sampled runs,
        whose counters are extrapolated, pass their own collector.
        All obs counters are ``set`` (gauge semantics): merging result
        collectors keeps the last writer rather than summing summaries.
        """
        if stats is None:
            stats = processor.stats
        if self.metrics is not None:
            self.metrics.to_counters(stats)
        if self.tracer is not None:
            stats.set("obs.trace.events", len(self.tracer.events))
            stats.set("obs.trace.dropped", self.tracer.dropped)
        if self.profiler is not None:
            self.profiler.to_counters(stats)
        if self.tracer is not None and self.config.trace_path:
            self.export_trace(self.config.trace_path,
                              process_name=processor.program.name,
                              sequencers=processor.config.frontend.sequencers)

    def export_trace(self, path: str, process_name: str = "repro",
                     sequencers: int = 1) -> dict:
        """Write the Chrome trace-event JSON to *path*; returns it."""
        if self.tracer is None:
            raise ValueError("tracing is not enabled")
        payload = self.tracer.export(process_name=process_name,
                                     sequencers=sequencers)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return payload
