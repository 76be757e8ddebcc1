"""SMARTS-style interval sampling over the oracle stream.

The stream is split into fixed-size *units* (default ~1k instructions).
Every *k*-th unit is detail-simulated, preceded by a detailed warm-up
prefix whose cycles are discarded (it re-fills the pipeline and short
-lived structures after the fast-forward); the gaps between detailed
windows are fast-forwarded *functionally* — state keeps tracking the
skipped references through :class:`repro.core.warming.WarmingState` at
emulation speed, but no cycles are simulated.

Gap fast-forwarding has two modes.  When the run pre-warmed every
predictor on the whole stream (``warm=True``, the default, matching the
steady-state methodology of full-detail runs), gaps only maintain cache
LRU recency (:meth:`WarmingState.feed_caches`) — the predictors are
already at steady state and re-training them through the gaps measurably
buys nothing while costing most of the sampled run's wall clock.  In the
pure-SMARTS mode (``warm=False``) gaps do full functional warming, and
every oracle instruction then trains the predictors through exactly one
path: the functional warmer (gap instructions) or the commit-side carver
(detailed-window instructions) — never both.

The per-unit CPIs are aggregated per SMARTS (Wunderlich et al., ISCA
2003): the CPI estimate is the mean of per-unit CPIs and the result
carries a 95% CLT confidence half-width under ``sampling.*`` counters,
so callers can *measure* the sampling error instead of guessing it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.config import env_int
from repro.core.processor import Processor
from repro.core.simulation import SimulationResult
from repro.core.warming import WarmingState, cache_touches
from repro.emulator.stream import ColumnStream
from repro.errors import ReproError
from repro.stats import StatsCollector

#: Environment knobs (registered in repro.config.ENV_KNOBS).
SAMPLE_ENV = "REPRO_SAMPLE"
UNIT_ENV = "REPRO_SAMPLE_UNIT"
WARMUP_ENV = "REPRO_SAMPLE_WARMUP"

DEFAULT_PERIOD = 16
DEFAULT_UNIT = 1000
DEFAULT_WARMUP = 1000


def _env_int(name: str, default: int, minimum: int) -> int:
    """An integer knob from the environment (see
    :func:`~repro.config.env_int`), or *default* when unset, blank or
    below *minimum* — so ``REPRO_SAMPLE=0``, every documented knob's
    "off" spelling, defers instead of crashing config validation (the
    regression the test suite pins)."""
    value = env_int(name, default)
    return value if value >= minimum else default

#: 95% two-sided normal quantile for the CLT confidence interval.
_Z_95 = 1.96


@dataclass(frozen=True)
class SamplingConfig:
    """Interval-sampling parameters.

    Attributes:
        period: measure every ``period``-th unit (1 = measure all).
        unit: oracle instructions (non-NOP) per sampling unit.
        warmup: detailed warm-up instructions run (and discarded) before
            each measured unit, re-filling pipeline-adjacent state after
            the functional fast-forward.
    """

    period: int = DEFAULT_PERIOD
    unit: int = DEFAULT_UNIT
    warmup: int = DEFAULT_WARMUP

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ReproError("sampling period must be >= 1")
        if self.unit < 1:
            raise ReproError("sampling unit must be >= 1")
        if self.warmup < 0:
            raise ReproError("sampling warmup must be >= 0")

    @classmethod
    def from_env(cls, period: Optional[int] = None) -> "SamplingConfig":
        """Build a config from ``REPRO_SAMPLE_UNIT`` / ``_WARMUP``,
        with *period* overriding ``REPRO_SAMPLE`` (default 16)."""
        if period is None:
            period = _env_int(SAMPLE_ENV, DEFAULT_PERIOD, 1)
        return cls(
            period=period,
            unit=_env_int(UNIT_ENV, DEFAULT_UNIT, 1),
            warmup=_env_int(WARMUP_ENV, DEFAULT_WARMUP, 0))

    def as_tuple(self) -> tuple:
        """``(period, unit, warmup)`` — the identity tuple cache keys
        and checkpoint fingerprints embed."""
        return (self.period, self.unit, self.warmup)


def resolve_sampling(value: Union[None, bool, int, SamplingConfig]
                     ) -> Optional[SamplingConfig]:
    """Normalise a ``run_simulation(sampling=...)`` argument.

    ``None`` defers to ``REPRO_SAMPLE`` (unset or 0 = off), ``False``/0
    forces full detail, ``True`` turns sampling on with env/default
    parameters, an int is a sampling period, and a
    :class:`SamplingConfig` passes through.
    """
    if isinstance(value, SamplingConfig):
        return value
    if value is None:
        period = _env_int(SAMPLE_ENV, 0, 1)
        return SamplingConfig.from_env(period) if period > 0 else None
    if value is True:
        return SamplingConfig.from_env()
    if value is False or value == 0:
        return None
    return SamplingConfig.from_env(int(value))


def _sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum.

    The built-in ``sum`` compensates rounding error from Python 3.12 on,
    so the same unit CPIs would give estimates that differ in the last
    bit between the supported Pythons; results must not.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _cpi_stats(unit_cycles: Sequence[int],
               unit_insts: Sequence[int]) -> Tuple[float, float, float]:
    """SMARTS aggregation: (CPI mean, std, 95% CLT half-width)."""
    cpis = [c / i for c, i in zip(unit_cycles, unit_insts)]
    k = len(cpis)
    cpi_mean = _sequential_sum(cpis) / k
    if k > 1:
        variance = _sequential_sum((c - cpi_mean) ** 2
                                   for c in cpis) / (k - 1)
        cpi_std = math.sqrt(variance)
        halfwidth = _Z_95 * cpi_std / math.sqrt(k)
    else:
        cpi_std = 0.0
        halfwidth = 0.0
    return cpi_mean, cpi_std, halfwidth


def unit_geometry(total: int, sampling: SamplingConfig
                  ) -> Tuple[int, List[int]]:
    """Sampling-unit geometry over *total* NOP-free instructions.

    Returns ``(total_units, measured_units)``: the unit count and the
    measured unit indices.
    """
    if total == 0:
        raise ReproError("cannot sample an empty oracle stream")
    unit = sampling.unit
    total_units = (total + unit - 1) // unit
    measured_units = [j for j in range(total_units)
                      if j % sampling.period == sampling.period - 1]
    if not measured_units:  # stream shorter than one period: measure last
        measured_units = [total_units - 1]
    return total_units, measured_units


@dataclass
class SampleAccum:
    """Mutable per-processor sampling accumulators.

    One instance per processor of a :func:`run_sampled` group; keeping
    the loop state in one object is what lets :func:`measure_unit` and
    :func:`finalize_sampled` stay per-processor while the schedule is
    the group's.  Plain data, so a checkpoint carries it as
    ``dataclasses.asdict``.
    """

    cursor: int = 0
    gap_insts: int = 0
    warmup_cycles: int = 0
    warmup_insts: int = 0
    timeouts: int = 0
    unit_insts: List[int] = field(default_factory=list)
    unit_cycles: List[int] = field(default_factory=list)
    measured_counters: Dict[str, float] = field(default_factory=dict)


def measure_unit(processor: Processor, acc: SampleAccum,
                 w_start: int, m_start: int, m_end: int,
                 max_cycles: Optional[int] = None) -> None:
    """One detailed window: warm-up prefix then the measured unit.

    Warm-up cycles are discarded; the measured unit's counter deltas
    bracket exactly ``[m_start, m_end)`` and accumulate into *acc*.
    *max_cycles* bounds each of the two segments; a segment that hits
    it counts one window timeout.
    """
    processor.restart_at(w_start)
    before = processor.now
    if not processor.run_until(m_start, max_cycles):
        acc.timeouts += 1
    acc.warmup_cycles += processor.now - before
    acc.warmup_insts += m_start - w_start

    before = processor.now
    snapshot = dict(processor.stats.as_dict())
    if not processor.run_until(m_end, max_cycles):
        acc.timeouts += 1
    cycles = processor.now - before
    measured = acc.measured_counters
    for name, value in processor.stats.as_dict().items():
        delta = value - snapshot.get(name, 0.0)
        if delta:
            measured[name] = measured.get(name, 0.0) + delta
    acc.unit_insts.append(m_end - m_start)
    acc.unit_cycles.append(cycles)
    acc.cursor = m_end


def finalize_sampled(processor: Processor, acc: SampleAccum,
                     sampling: SamplingConfig, total: int,
                     total_units: int, config_name: str,
                     benchmark: str) -> SimulationResult:
    """Extrapolate a full-run :class:`SimulationResult` from *acc*.

    SMARTS aggregation (CPI = mean of per-unit CPIs, 95% CLT interval),
    counter scaling, ``sampling.*`` bookkeeping, the fold-in of the
    processor's observability summaries (exact host-side measurements,
    not extrapolations) and its live publisher's final snapshot.
    """
    k = len(acc.unit_cycles)
    cpi_mean, cpi_std, halfwidth = _cpi_stats(acc.unit_cycles,
                                              acc.unit_insts)
    est_cycles = max(1, round(cpi_mean * total))
    measured_insts = sum(acc.unit_insts)

    scale = total / measured_insts
    counters = {name: value * scale
                for name, value in acc.measured_counters.items()}
    counters["sim.cycles"] = float(est_cycles)
    counters["sim.committed"] = float(total)
    if acc.timeouts:
        counters["sim.timeout"] = 1.0
    counters.update({
        "sampling.enabled": 1.0,
        "sampling.period": float(sampling.period),
        "sampling.unit": float(sampling.unit),
        "sampling.warmup": float(sampling.warmup),
        "sampling.units_total": float(total_units),
        "sampling.units_measured": float(k),
        "sampling.units_skipped": float(total_units - k),
        "sampling.measured_insts": float(measured_insts),
        "sampling.measured_cycles": float(sum(acc.unit_cycles)),
        "sampling.warmup_insts": float(acc.warmup_insts),
        "sampling.warmup_cycles_discarded": float(acc.warmup_cycles),
        "sampling.gap_insts_warmed": float(acc.gap_insts),
        "sampling.window_timeouts": float(acc.timeouts),
        "sampling.cpi_mean": cpi_mean,
        "sampling.cpi_std": cpi_std,
        "sampling.cpi_halfwidth": halfwidth,
        "sampling.ipc_halfwidth_rel": (halfwidth / cpi_mean
                                       if cpi_mean else 0.0),
    })
    if processor.obs is not None:
        obs_stats = StatsCollector()
        processor.obs.finalize(processor, obs_stats)
        counters.update(obs_stats.as_dict())
    if processor.live is not None:
        processor.live.publish_final(processor)
    return SimulationResult(
        benchmark=benchmark,
        config_name=config_name,
        cycles=est_cycles,
        committed=total,
        counters=counters,
    )


def run_sampled(processors: Sequence[Processor],
                oracle: ColumnStream,
                sampling: SamplingConfig,
                names: Sequence[str],
                benchmark: str,
                warm: bool = True,
                max_cycles: Optional[int] = None,
                checkpoint_every: Optional[int] = None,
                checkpoint_manager=None,
                resume=None,
                unit_hook: Optional[Callable] = None
                ) -> List[SimulationResult]:
    """Interval-sample *oracle* on every processor of a co-sim group.

    The processors, built and warmed (or restored) by
    :func:`repro.perf.cosim.run_cosim`, advance unit-lockstep: each gap
    is fast-forwarded functionally, then each processor runs the
    window's warm-up and measured segments (:func:`measure_unit`).
    With ``warm=True`` the processors were pre-warmed on the whole
    stream and gaps only maintain cache recency: one
    :func:`~repro.core.warming.cache_touches` list per gap, a function
    of the stream alone, is replayed into each processor.  ``warm=False``
    is the pure-SMARTS mode where gap warming alone trains the
    structures.  Returns one extrapolated result per processor,
    labelled by *names*.

    With a *checkpoint_manager* (a group of one; see
    :mod:`repro.checkpoint`) the run snapshots at measured-unit
    boundaries roughly every *checkpoint_every* stream instructions, and
    *resume* (a snapshot already restored into the processor) supplies
    the loop state.  Windows restart the pipeline anyway, so results are
    bit-identical with checkpointing on, off, or resumed mid-stream.

    A processor's profiler charges gap fast-forwarding to a ``warm``
    phase; its live publisher snapshots progress and the rolling
    confidence after each unit.  *unit_hook*, a test seam, is called as
    ``unit_hook(ui, processors)`` after each measured unit.
    """
    from repro import checkpoint as ckpt

    # Unit geometry is over the NOP-free stream (the processor's commit
    # index space); the group's shared raw_index maps a NOP-free index
    # back to the raw stream so gap warming can still touch NOP fetch
    # lines.
    raw_index = processors[0].shared.raw_index
    total = len(raw_index)
    total_units, measured_units = unit_geometry(total, sampling)
    unit = sampling.unit
    warmers = [WarmingState(processor) for processor in processors]
    accs = [SampleAccum() for _ in processors]
    start_ui = 0
    seen_line = -1    # the gap I-line carry, a function of the stream
    if resume is not None:
        start_ui = resume.extra["ui"]
        seen_line = resume.extra["seen_line"]
        accs = [SampleAccum(**resume.extra["acc"])]
        warmers[0]._seen_line = seen_line
    cursor = accs[0].cursor
    last_ckpt = cursor

    for ui in range(start_ui, len(measured_units)):
        j = measured_units[ui]
        m_start = j * unit
        m_end = min(m_start + unit, total)
        w_start = max(m_start - sampling.warmup, cursor)

        # Functional fast-forward of the gap (raw slice: NOPs included
        # for cache touches, exactly as pre-run warming would see them).
        if w_start > cursor:
            gap = oracle[raw_index[cursor]:raw_index[w_start]]
            touches = cache_touches(gap, seen_line) if warm else None
            seen_line = gap.pc[-1] >> 6
            for processor, warmer, acc in zip(processors, warmers, accs):
                profiler = (processor.obs.profiler
                            if processor.obs is not None else None)
                t0 = profiler.start() if profiler is not None else 0.0
                if warm:
                    warmer.feed_caches(touches)
                else:
                    warmer.feed(gap)
                    warmer.discard_partial()
                if profiler is not None:
                    profiler.stop("warm", t0)
                acc.gap_insts += w_start - cursor

        # Detailed warm-up prefix (cycles discarded, structures trained
        # by the commit carver) then the measured unit: counter deltas
        # bracket exactly that window.
        for processor, acc in zip(processors, accs):
            measure_unit(processor, acc, w_start, m_start, m_end,
                         max_cycles)
            live = processor.live
            if live is not None:
                # Unit boundaries are the natural progress ticks in
                # sampled mode; publish the rolling confidence too.
                mean, _, halfwidth = _cpi_stats(acc.unit_cycles,
                                                acc.unit_insts)
                live.note_sampling(
                    unit=ui + 1,
                    units_total=len(measured_units),
                    measured_insts=sum(acc.unit_insts),
                    cpi_mean=round(mean, 6),
                    cpi_halfwidth=round(halfwidth, 6),
                    ipc_halfwidth_rel=(round(halfwidth / mean, 6)
                                       if mean else 0.0))
                live.publish(processor)
        cursor = m_end
        if unit_hook is not None:
            unit_hook(ui, processors)

        # Measured-unit boundaries are drained checkpoint seams already;
        # capture is read-only, so storing perturbs nothing.
        if (checkpoint_manager is not None
                and ui + 1 < len(measured_units)
                and cursor - last_ckpt >= checkpoint_every):
            processor = processors[0]
            extra = {"acc": asdict(accs[0]), "ui": ui + 1,
                     "seen_line": seen_line}
            checkpoint_manager.store(
                ckpt.ProcessorSnapshot.capture(
                    processor, checkpoint_manager.fingerprint, extra=extra),
                ordinal=cursor // checkpoint_every)
            last_ckpt = cursor
            if processor.live is not None:
                processor.live.note_checkpoint(cursor // checkpoint_every)
    # The trailing gap (after the last measured unit) warms nothing.
    if checkpoint_manager is not None:
        checkpoint_manager.clear()

    return [finalize_sampled(processor, acc, sampling, total, total_units,
                             name, benchmark)
            for processor, acc, name in zip(processors, accs, names)]
