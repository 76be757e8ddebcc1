"""Every simulation run: N timing models over one stream pass.

The paper's evaluation is a many-configs-one-benchmark matrix (Figs
4-10: W16/TC/PF/PR over each benchmark), so the unit of work here is a
*group* of configs over one resolved oracle stream.  ``run_simulation``
is a group of one; the sweep runner (:mod:`repro.experiments.runner`)
turns each stream group's eligible jobs into one larger group
(``REPRO_SWEEP_GROUP=0`` leaves every job a group of one).
:func:`run_cosim` builds each :class:`~repro.core.processor.Processor`
in one place, warms it from the group's snapshots or restores it from a
checkpoint, and drives it in ``run_until``/``restart_at`` segments:

* full detail — one segment per run, one processor alive at a time;
* checkpointed (a group of one) — one segment per ``checkpoint_every``
  instructions, with a snapshot at each boundary;
* sampled — :func:`repro.sampling.engine.run_sampled`'s measured
  windows, unit-lockstep over the whole group.

What is a pure function of the *stream* is computed once per group: one
:class:`~repro.perf.soa.SharedStream` (the NOP-free oracle's columns and
raw-position map, decode cache, per-fragment-config metadata and
fragment-walk memos), one warm-training walk per fragment config that
trains each distinct warm structure once
(:func:`repro.sampling.prep.warm_group_snapshots`), one live-out memo
that walk and every sibling's commit carver share (the stream's
``liveouts``), and in sampled mode one cache-touch list per functional
gap.  Everything
config-dependent — predictors, rename state, window, caches' *contents*,
stats — stays per processor, so results (counters included) are
bit-identical to serial per-config runs in every mode; the parity tests
assert it.

Like :mod:`repro.perf.bench`, the heavyweight simulator imports are
deferred into the functions: ``repro.core.processor`` imports this
package for :mod:`repro.perf.soa`, so a module-level import of
``repro.core`` here would be circular.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.emulator.stream import gc_paused

#: One co-simulated job: a named config (``run_simulation``'s first two
#: identity arguments; everything else is shared across the group).
CosimSpec = Tuple[Union[str, "ProcessorConfig"], Optional[str]]  # noqa: F821


def _reject_unsupported(mode: str, group: int, every: Optional[int],
                        observability, env_obs, uop_log, live) -> None:
    """Raise :class:`~repro.errors.ConfigError` for an argument the run
    cannot honour.

    A group of more than one shares the schedule, not per-run objects:
    a checkpoint cadence, an observability bundle, a uop log or a ready
    :class:`~repro.obs.live.LiveTelemetry` belong to one run.  Only
    full detail fills a uop log.  Checkpointed runs take no
    observability pillar, and sampled runs no metrics sampling — from
    an explicit bundle (*observability*) or from the ``REPRO_OBS_*``
    environment (*env_obs*, when no bundle is given).
    """
    from repro.config import OBS_PROFILE_ENV, OBS_SAMPLE_ENV, OBS_TRACE_ENV
    from repro.errors import ConfigError
    from repro.obs.live import LiveTelemetry

    if group > 1:
        shared = [name for name, given in (
            ("checkpoint_every", every is not None),
            ("observability", observability is not None),
            ("uop_log", uop_log is not None),
            ("a LiveTelemetry instance", isinstance(live, LiveTelemetry)),
        ) if given]
        if shared:
            raise ConfigError(f"{', '.join(shared)} not supported in a "
                              f"co-sim group of {group}")
    if mode == "full":
        return
    unsupported = []
    if uop_log is not None:
        unsupported.append("uop_log")
    if observability is not None:
        if mode == "checkpointed" and observability.enabled:
            unsupported.append("observability")
        elif mode == "sampled" and observability.metrics is not None:
            unsupported.append("observability metrics sampling")
    if env_obs is not None:
        pillars = [(OBS_SAMPLE_ENV, env_obs.sample_interval)]
        if mode == "checkpointed":
            pillars += [(OBS_TRACE_ENV, env_obs.trace),
                        (OBS_PROFILE_ENV, env_obs.profile)]
        unsupported += [name for name, on in pillars if on]
    if unsupported:
        raise ConfigError(f"{', '.join(unsupported)} not supported in "
                          f"{mode} mode")


def _run_segments(processor, every: Optional[int], manager,
                  max_cycles: Optional[int]) -> bool:
    """Drive a full-detail run to the end of its stream; False on a
    timeout.

    Without checkpointing that is one segment.  With it, each segment
    runs to the next multiple of *every* committed instructions,
    snapshots the drained state through *manager* and re-enters via
    ``restart_at`` — so an uninterrupted checkpointed run and a
    killed-and-resumed one execute the identical schedule.
    *max_cycles* bounds each segment; a completed run clears its
    snapshots.
    """
    from repro.checkpoint import ProcessorSnapshot

    total = processor.stream_length
    if manager is None:
        return processor.run_until(total, max_cycles)
    while True:
        target = min(processor.committed + every, total)
        if not processor.run_until(target, max_cycles):
            return False
        if processor.committed >= total:
            manager.clear()
            return True
        ordinal = processor.committed // every
        manager.store(ProcessorSnapshot.capture(processor,
                                                manager.fingerprint),
                      ordinal=ordinal)
        if processor.live is not None:
            processor.live.note_checkpoint(ordinal)
        processor.restart_at(processor.committed)


# Every run's object graph is acyclic (docs/DATA_LAYOUT.md § 10), so
# the cyclic collector's passes during a run free nothing: they only
# re-walk the stream, the program and the processors' tables.
@gc_paused()
def run_cosim(specs: Sequence[CosimSpec],
              benchmark,
              max_instructions: Optional[int] = None,
              warm: bool = True,
              sampling=None,
              unit_hook: Optional[Callable] = None,
              *,
              max_cycles: Optional[int] = None,
              invariant_checks: Optional[bool] = None,
              observability=None,
              uop_log: Optional[list] = None,
              checkpoint_every=None,
              live=None,
              ) -> Tuple[List["SimulationResult"],  # noqa: F821
                         Dict[str, float]]:
    """Simulate every config in *specs* over one shared stream.

    Args:
        specs: ``(config, config_name)`` pairs — a named paper config or
            a full :class:`~repro.config.ProcessorConfig`, plus the
            result label (None derives it like ``run_simulation``).
        benchmark: suite benchmark name or ad-hoc
            :class:`~repro.isa.program.Program`, shared by the group.
        max_instructions: shared dynamic instruction budget.
        warm: shared pre-run functional warming flag.
        sampling: shared sampling selector (``run_simulation`` semantics;
            resolved once for the group).
        unit_hook: sampled mode only — called as ``unit_hook(ui,
            processors)`` after each measured unit's windows complete,
            with the processors in spec order.  A test seam for the
            cross-config state-isolation contract; None in production.
        max_cycles, invariant_checks, observability, uop_log,
            checkpoint_every, live: as for
            :func:`~repro.core.simulation.run_simulation`, applied to
            every processor.  *checkpoint_every*, *observability*,
            *uop_log* and a ready ``LiveTelemetry`` belong to one run, so
            a group of more than one raises
            :class:`~repro.errors.ConfigError` for them.

    Returns:
        ``(results, savings)``: one :class:`SimulationResult` per spec,
        in order, each bit-identical to the serial
        ``run_simulation(config, benchmark, ...)`` result; and a counter
        dict describing the work sharing (``cosim.jobs``,
        ``cosim.shared_decode``, ``cosim.gap_insts_shared``, plus
        ``prep.snapshot_*`` deltas) for the sweep summary.

    Raises:
        ConfigError: an argument the run cannot honour (see
            :func:`~repro.core.simulation.run_simulation`), checked
            before any oracle preparation.
    """
    from repro import checkpoint
    from repro.config import LiveConfig, ObservabilityConfig
    from repro.core.invariants import InvariantChecker, PipelineWatchdog
    from repro.core.processor import Processor
    from repro.core.simulation import SimulationResult, _resolve_config
    from repro.obs import Observability
    from repro.obs.live import LiveTelemetry
    from repro.perf.soa import SharedStream
    from repro.sampling import prep
    from repro.sampling.engine import resolve_sampling, run_sampled
    from repro.workloads import suite

    if not specs:
        return [], {}
    sampling_config = resolve_sampling(sampling)
    every = checkpoint.resolve_checkpoint_every(checkpoint_every)
    mode = ("sampled" if sampling_config is not None
            else "checkpointed" if every is not None else "full")
    env_obs = (ObservabilityConfig.from_env() if observability is None
               else None)
    # None defers to REPRO_LIVE*, True publishes with defaults; a
    # LiveConfig, or a ready LiveTelemetry, passes through.
    if live is None:
        live = LiveConfig.from_env()
    elif live is True:
        live = LiveConfig()
    elif live is False:
        live = None
    n = len(specs)
    _reject_unsupported(mode, n, every, observability, env_obs, uop_log,
                        live)
    if invariant_checks is None:
        checker = InvariantChecker.from_env()
    else:
        checker = InvariantChecker() if invariant_checks else None
    # Each processor gets its own watchdog (it tracks that processor's
    # progress), all with the limit read here.
    watchdog = PipelineWatchdog.from_env()

    names: List[str] = []
    configs: List["ProcessorConfig"] = []  # noqa: F821
    for config, name in specs:
        resolved_name, processor_config = _resolve_config(config)
        names.append(name or resolved_name)
        configs.append(processor_config)

    length = (suite.default_sim_instructions() if max_instructions is None
              else max_instructions)
    program, execution, stream_key = prep.get_oracle(benchmark, length)
    oracle = execution.stream
    bench_name = benchmark if isinstance(benchmark, str) else program.name

    manager = resume = None
    if every is not None:
        stream_fp = prep.stream_fingerprint(stream_key, program)
        manager = checkpoint.CheckpointManager(
            checkpoint.run_fingerprint(
                configs[0], stream_fp, warm,
                sampling_config.as_tuple() if sampling_config else None,
                every),
            description=f"{names[0]}/{bench_name}")
        resume = manager.latest()

    savings: Dict[str, float] = {"cosim.jobs": float(n)}
    snapshots: Dict = {}
    if warm and resume is None:
        prep_before = prep.PREP_STATS.as_dict()
        snapshots = prep.warm_group_snapshots(configs, oracle, stream_key,
                                              pin=program)
        prep_after = prep.PREP_STATS.as_dict()
        for key in ("prep.snapshot_trains", "prep.structure_trains",
                    "prep.snapshot_group_shared"):
            delta = prep_after.get(key, 0.0) - prep_before.get(key, 0.0)
            if delta:
                savings[key] = delta
    shared = SharedStream(oracle)

    def build(processor_config, name: str) -> Processor:
        """One processor of the group, warmed or restored."""
        obs = observability
        if obs is None and env_obs.enabled:
            obs = Observability(env_obs)
        publisher = live
        if isinstance(live, LiveConfig):
            publisher = LiveTelemetry(live, benchmark=bench_name,
                                      config_name=name, mode=mode)
        processor = Processor(processor_config, program, oracle,
                              watchdog=(None if watchdog is None
                                        else PipelineWatchdog(
                                            watchdog.stall_limit)),
                              invariants=checker, obs=obs, live=publisher,
                              shared=shared)
        processor.uop_log = uop_log
        if resume is not None:
            resume.restore(processor)
            checkpoint.CHECKPOINT_STATS.add("checkpoint.resumed")
        elif warm:
            prep.warm_from_snapshot(processor, oracle, stream_key,
                                    pin=program, snapshots=snapshots)
        return processor

    def run_full(processor_config, name: str) -> SimulationResult:
        """Build, run and drop one processor in full detail."""
        processor = build(processor_config, name)
        processor.stamp_summary(timed_out=not _run_segments(
            processor, every, manager, max_cycles))
        if processor.live is not None:
            processor.live.publish_final(processor)
        processor.unlink_in_flight()
        return SimulationResult(
            benchmark=bench_name,
            config_name=name,
            cycles=processor.now,
            committed=processor.committed,
            counters=processor.stats.as_dict(),
        )

    if sampling_config is not None:
        # Unit-lockstep: the whole group is alive for the whole run.
        processors = [build(config, name)
                      for config, name in zip(configs, names)]
        results = run_sampled(processors, oracle, sampling_config, names,
                              bench_name, warm=warm, max_cycles=max_cycles,
                              checkpoint_every=every,
                              checkpoint_manager=manager, resume=resume,
                              unit_hook=unit_hook)
        for processor in processors:
            processor.unlink_in_flight()
        # Warm gaps fast-forward once for the whole group.
        gap_insts = results[0].counter("sampling.gap_insts_warmed")
        savings["cosim.gap_insts_shared"] = (gap_insts * (n - 1)
                                             if warm else 0.0)
    else:
        # Sharing is stream-level and every shared structure is a pure
        # keyed function, so processors run one after another, each
        # dropped before the next is built: a large group's peak memory
        # stays that of a single run.
        results = [run_full(config, name)
                   for config, name in zip(configs, names)]

    if shared is not None:
        # Decode entries are built once and served to the other n-1
        # processors; misses count the builds (including re-builds).
        savings["cosim.shared_decode"] = float(
            shared.decode_cache.misses * (n - 1))
    return results, savings
