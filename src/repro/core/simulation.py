"""High-level simulation entry points and result objects.

This is the main public API::

    from repro import run_simulation

    result = run_simulation("pr-2x8w", "gcc", max_instructions=30_000)
    print(result.ipc, result.fetch_rate, result.slot_utilization)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.config import LiveConfig, ProcessorConfig, frontend_config
from repro.core.uop import MicroOp
from repro.isa.program import Program
from repro.obs import Observability
from repro.obs.live import LiveTelemetry
from repro.perf import cosim


@dataclass
class SimulationResult:
    """Metrics of one (configuration, benchmark) simulation."""

    benchmark: str
    config_name: str
    cycles: int
    committed: int
    counters: Dict[str, float] = field(default_factory=dict)

    def counter(self, name: str) -> float:
        """A raw counter value by name (0.0 when absent)."""
        return self.counters.get(name, 0.0)

    # -- headline metrics -------------------------------------------------

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def fetch_rate(self) -> float:
        """Instructions supplied by fetch per cycle, including wrong-path
        and buffer-reused instructions (the Figure 5 metric)."""
        supplied = (self.counter("fetch.insts")
                    + self.counter("fetch.reused_insts"))
        return supplied / self.cycles if self.cycles else 0.0

    @property
    def rename_rate(self) -> float:
        """Instructions renamed per cycle, including wrong path (Fig. 5)."""
        return (self.counter("rename.insts") / self.cycles
                if self.cycles else 0.0)

    @property
    def slot_utilization(self) -> float:
        """Fetched instructions / available fetch slots (Figure 4)."""
        slots = self.counter("fetch.slots")
        return self.counter("fetch.insts") / slots if slots else 0.0

    @property
    def trace_cache_hit_rate(self) -> float:
        """Trace-cache hits over trace-cache accesses."""
        hits = self.counter("tc.hits")
        total = hits + self.counter("tc.misses")
        return hits / total if total else 0.0

    @property
    def fragment_reuse_rate(self) -> float:
        """Fraction of allocated fragments served from retained buffers
        (Section 3.2's 20-70% statistic)."""
        allocations = self.counter("fragbuf.allocations")
        return (self.counter("fragbuf.reuses") / allocations
                if allocations else 0.0)

    @property
    def preconstructed_fraction(self) -> float:
        """Fraction of fragments fully constructed before rename first
        touched them (Section 3.3's 84% statistic)."""
        started = self.counter("rename.fragments_started")
        return (self.counter("rename.fragments_preconstructed") / started
                if started else 0.0)

    @property
    def liveout_accuracy(self) -> float:
        """Fraction of live-out predictions that were fully correct."""
        lookups = self.counter("rename.liveout_lookups")
        if not lookups:
            return 1.0
        wrong = (self.counter("rename.liveout_mispredicts")
                 + self.counter("rename.liveout_cold"))
        return max(0.0, 1.0 - wrong / lookups)

    @property
    def renamed_before_source_fraction(self) -> float:
        """Fraction of renamed instructions renamed before a producer
        (Section 5.2's 4-12% statistic)."""
        renamed = self.counter("rename.insts")
        return (self.counter("rename.before_source") / renamed
                if renamed else 0.0)

    @property
    def l1i_miss_rate(self) -> float:
        """L1 instruction-cache misses over accesses."""
        hits = self.counter("l1i.hits")
        misses = self.counter("l1i.misses")
        total = hits + misses
        return misses / total if total else 0.0

    @property
    def timed_out(self) -> bool:
        """Whether the run hit its cycle bound before finishing."""
        return bool(self.counter("sim.timeout"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimulationResult({self.config_name}/{self.benchmark}: "
                f"IPC={self.ipc:.2f}, fetch={self.fetch_rate:.2f}/cyc, "
                f"{self.cycles} cycles)")


def _resolve_config(config: Union[str, ProcessorConfig]
                    ) -> Tuple[str, ProcessorConfig]:
    if isinstance(config, str):
        return config, frontend_config(config)
    return config.frontend.fetch_kind, config


def run_simulation(config: Union[str, ProcessorConfig],
                   benchmark: Union[str, Program],
                   max_instructions: Optional[int] = None,
                   max_cycles: Optional[int] = None,
                   config_name: Optional[str] = None,
                   warm: bool = True,
                   invariant_checks: Optional[bool] = None,
                   observability: Optional[Observability] = None,
                   uop_log: Optional[List[MicroOp]] = None,
                   sampling: Union[None, bool, int,
                                   "SamplingConfig"] = None,
                   checkpoint_every: Union[None, bool, int] = None,
                   live: Union[None, bool, LiveConfig, LiveTelemetry] = None
                   ) -> SimulationResult:
    """Simulate *benchmark* on the given front-end configuration.

    A single run is a co-sim group of one: this is
    ``repro.perf.cosim.run_cosim([(config, config_name)], ...)``, which
    runs every mode.

    Args:
        config: a named paper configuration (``w16``, ``tc``, ``tc2x``,
            ``pf-2x8w``, ``pf-4x4w``, ``pr-2x8w``, ``pr-4x4w``,
            ``tc+pr-2x8w``, ``tc+pr-4x4w``) or a full
            :class:`~repro.config.ProcessorConfig`.
        benchmark: a suite benchmark name or an assembled
            :class:`~repro.isa.program.Program`.
        max_instructions: dynamic instructions to simulate (defaults to the
            suite default, overridable via ``REPRO_SIM_INSTRUCTIONS``).
        max_cycles: optional safety bound on simulated cycles, per
            segment: the whole run in full detail, each interval when
            checkpointing, and each warm-up or measured window segment
            when sampling (``sampling.window_timeouts`` counts hits).
        warm: functionally warm predictors and caches with the stream
            before the timed run (steady-state methodology; see
            :mod:`repro.core.warming`).  Default True.
        invariant_checks: force the per-cycle pipeline audits on (True)
            or off (False) in every mode; None defers to
            ``REPRO_INVARIANT_CHECKS``.
            The forward-progress watchdog is independent of this flag and
            controlled by ``REPRO_WATCHDOG_CYCLES`` (0 disables).
        observability: an :class:`~repro.obs.Observability` bundle
            (metrics sampling / event tracing / self-profiling); None
            defers to the ``REPRO_OBS_*`` environment knobs, which all
            default to off.  Summaries are folded into the result's
            counters under ``obs.*``.  Either source is checked against
            the mode (see *sampling* and *checkpoint_every*).
        uop_log: when a list is supplied, every committed
            :class:`~repro.core.uop.MicroOp` is appended to it (the
            pipeview path; see :mod:`repro.core.trace`).  Full-detail
            mode only.
        sampling: interval-sampled simulation (SMARTS-style; see
            :mod:`repro.sampling`).  ``None`` defers to ``REPRO_SAMPLE``
            (unset or 0 = full detail), ``False`` forces full detail,
            ``True`` samples with default/env parameters, an int sets
            the sampling period, and a
            :class:`~repro.sampling.SamplingConfig` gives full control.
            Sampled results are extrapolated estimates carrying
            ``sampling.*`` confidence counters.  Of the observability
            pillars the profiler and tracer stay live (``obs.*``
            summaries land in the counters); ``uop_log`` and metrics
            sampling (a bundle's, or ``REPRO_OBS_SAMPLE``) raise
            :class:`~repro.errors.ConfigError`.
        checkpoint_every: durable checkpoint/restore (see
            :mod:`repro.checkpoint`).  ``None`` defers to
            ``REPRO_CHECKPOINT`` (unset or 0 = off), ``0``/``False``
            force off, and a positive int snapshots the warmed processor
            state to disk every N committed instructions; an interrupted
            run automatically resumes from the newest valid snapshot and
            is bit-identical to an uninterrupted run with the same
            cadence.  Checkpoint boundaries drain the pipeline, so the
            cadence is part of the run's identity (and of sweep cache
            keys).  In checkpointed full-detail mode ``uop_log`` and
            any observability pillar (a bundle's, or one of
            ``REPRO_OBS_SAMPLE``/``_TRACE``/``_PROFILE``) raise
            :class:`~repro.errors.ConfigError`.
        live: live telemetry (see :mod:`repro.obs.live`): snapshot the
            running pipeline to a status file ``repro attach`` can
            watch.  ``None`` defers to ``REPRO_LIVE*`` (default off),
            ``False`` forces off, ``True`` publishes with defaults, a
            :class:`~repro.config.LiveConfig` gives full control, and
            a :class:`~repro.obs.live.LiveTelemetry` is used directly.
            Works in every mode (full detail, sampled, checkpointed)
            and never changes the result: publishing is read-only and
            results are bit-identical with it on or off.

    Returns:
        A :class:`SimulationResult` with every counter the models emit.

    Raises:
        ConfigError: an argument the chosen mode cannot honour (see
            *sampling* and *checkpoint_every*), or a malformed numeric
            ``REPRO_*`` knob; raised before any oracle preparation.
        DeadlockError: the pipeline livelocked (no commits for the
            watchdog's stall window) — a simulator bug, not a property
            of the program.
        InvariantError: an enabled per-cycle audit found inconsistent
            pipeline state.
    """
    results, _ = cosim.run_cosim(
        [(config, config_name)], benchmark, max_instructions, warm,
        sampling, max_cycles=max_cycles, invariant_checks=invariant_checks,
        observability=observability, uop_log=uop_log,
        checkpoint_every=checkpoint_every, live=live)
    return results[0]
