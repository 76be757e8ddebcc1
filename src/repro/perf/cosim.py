"""Multi-config co-simulation: one stream pass, N timing models.

The paper's whole evaluation is a many-configs-one-benchmark matrix
(Figs 4-10: W16/TC/PF/PR over each benchmark), and everything that is a
pure function of the *stream* — decode, the flattened oracle-PC table,
fragment metadata, functional gap fast-forwarding, warm-snapshot
training — was still being recomputed once per config.  This engine
advances N :class:`~repro.core.processor.Processor` instances over one
shared prepared stream and shares exactly that config-independent work:

* one :class:`~repro.perf.soa.SharedStream` (decode cache + SoA PC
  table + per-fragment-config metadata) injected into every sibling;
* one warm-snapshot training pass per fragment config
  (:func:`repro.sampling.prep.warm_group_snapshots`) instead of one
  per distinct warm digest, and clones from the group's own snapshot
  mapping, so each digest is trained once however many the group has;
* in sampled mode, one functional gap fast-forward per group: the
  cache-touch list of each gap (which addresses fill, in which order)
  depends only on the stream, so it is computed once and replayed into
  each sibling's memory hierarchy.

Everything config-dependent — predictors, rename state, window, caches'
*contents*, stats — stays strictly per sibling, so results (counters
included) are bit-identical to serial per-config runs in full-detail,
obs-on and sampled modes; the parity tests assert it.  The sweep runner
(:mod:`repro.experiments.runner`) turns each stream group's eligible
jobs into one co-sim batch; ``REPRO_SWEEP_GROUP=0`` leaves every group
a single job, so nothing co-simulates.

Like :mod:`repro.perf.bench`, the heavyweight simulator imports are
deferred into the functions: ``repro.core.processor`` imports this
package for :class:`~repro.perf.knobs.PerfConfig`, so a module-level
import of ``repro.core`` here would be circular.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.perf.knobs import PerfConfig

#: One co-simulated job: a named config (``run_simulation``'s first two
#: identity arguments; everything else is shared across the group).
CosimSpec = Tuple[Union[str, "ProcessorConfig"], Optional[str]]  # noqa: F821


def _gap_touches(gap, seen_line: int) -> Tuple[List[Tuple[int, bool]], int]:
    """The cache-touch list of one functional fast-forward gap.

    Mirrors :meth:`repro.core.warming.WarmingState.feed_caches` exactly:
    an instruction-side touch on every I-line change, a data-side touch
    per memory record, in stream order.  Which touches happen depends
    only on the stream and the carried *seen_line* — never on a config —
    so one list serves every sibling.  Returns the touches and the
    carried-out seen line.
    """
    touches: List[Tuple[int, bool]] = []
    append = touches.append
    for record in gap:
        line = record.pc >> 6
        if line != seen_line:
            append((record.pc, True))
            seen_line = line
        if record.ea is not None:
            append((record.ea, False))
    return touches, seen_line


def _replay_touches(memory, touches: Sequence[Tuple[int, bool]]) -> None:
    """Apply a shared touch list to one sibling's memory hierarchy.

    Fill order per touch matches ``feed_caches``: L2 first, then the
    L1 side the touch belongs to — each sibling's LRU state observes
    exactly the update sequence a solo gap walk would apply.
    """
    l2_fill = memory.l2.fill
    l1i_fill = memory.l1i.fill
    l1d_fill = memory.l1d.fill
    for addr, is_inst in touches:
        l2_fill(addr)
        if is_inst:
            l1i_fill(addr)
        else:
            l1d_fill(addr)


def run_cosim(specs: Sequence[CosimSpec],
              benchmark,
              max_instructions: Optional[int] = None,
              warm: bool = True,
              sampling=None,
              unit_hook: Optional[Callable] = None,
              ) -> Tuple[List["SimulationResult"],  # noqa: F821
                         Dict[str, float]]:
    """Co-simulate every config in *specs* over one shared stream.

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
            with the sibling processors in spec order.  A test seam for
            the cross-config state-isolation contract; None in
            production.

    Returns:
        ``(results, savings)``: one :class:`SimulationResult` per spec,
        in order, each bit-identical to the serial
        ``run_simulation(config, benchmark, ...)`` result; and a counter
        dict describing the work sharing (``cosim.jobs``,
        ``cosim.shared_decode``, ``cosim.gap_insts_shared``, plus
        ``prep.snapshot_*`` deltas) for the sweep summary.
    """
    from repro.core.processor import Processor
    from repro.core.simulation import (
        SimulationResult,
        _resolve_config,
        _resolve_live,
    )
    from repro.core.warming import WarmingState
    from repro.obs import Observability
    from repro.perf.soa import SharedStream
    from repro.sampling import prep
    from repro.sampling.engine import (
        SampleAccum,
        _cpi_stats,
        finalize_sampled,
        measure_unit,
        resolve_sampling,
        unit_geometry,
    )
    from repro.workloads import suite

    if not specs:
        return [], {}
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
    sampling_config = resolve_sampling(sampling)
    n = len(specs)

    savings: Dict[str, float] = {"cosim.jobs": float(n)}
    prep_before = prep.PREP_STATS.as_dict()
    snapshots: Dict = {}
    if warm:
        snapshots = prep.warm_group_snapshots(configs, oracle, stream_key,
                                              pin=program)
        prep_after = prep.PREP_STATS.as_dict()
        for key in ("prep.snapshot_trains", "prep.snapshot_group_shared"):
            delta = prep_after.get(key, 0.0) - prep_before.get(key, 0.0)
            if delta:
                savings[key] = delta
    # Clones each group snapshot still owes; the last one drops it.
    owed = Counter(prep.snapshot_key(stream_key, c) for c in configs)

    def warm_sibling(processor: Processor) -> None:
        prep.warm_from_snapshot(processor, oracle, stream_key, pin=program,
                                snapshots=snapshots)
        snapshot_key = prep.snapshot_key(stream_key, processor.config)
        owed[snapshot_key] -= 1
        if not owed[snapshot_key]:
            snapshots.pop(snapshot_key, None)

    shared = (SharedStream(oracle)
              if PerfConfig.from_env().fast else None)

    results: List[SimulationResult] = []
    if sampling_config is None:
        # Full-detail mode.  Sharing is stream-level (decode cache, SoA
        # tables, warm snapshots) and every shared structure is a pure
        # keyed function, so sibling order — sequential here — cannot
        # affect any result; cycle-interleaving would buy nothing.
        for processor_config, name in zip(configs, names):
            obs = Observability.from_env()
            live = _resolve_live(None, bench_name, name, "full")
            processor = Processor(processor_config, program, oracle,
                                  obs=obs, live=live, shared=shared)
            if warm:
                warm_sibling(processor)
            processor.run()
            if live is not None:
                live.publish_final(processor)
            results.append(SimulationResult(
                benchmark=bench_name,
                config_name=name,
                cycles=processor.now,
                committed=processor.committed,
                counters=processor.stats.as_dict(),
            ))
    else:
        # Sampled mode: unit-lockstep.  Measured units detail-simulate
        # every sibling; each gap is fast-forwarded once (warm mode) via
        # the shared touch list and replayed per sibling.
        raw_pos, total, total_units, measured_units = unit_geometry(
            oracle, sampling_config)
        unit = sampling_config.unit

        processors: List[Processor] = []
        obs_list: List[Observability] = []
        lives: List[object] = []
        accs: List[SampleAccum] = []
        warmers: List[WarmingState] = []
        for processor_config, name in zip(configs, names):
            obs = Observability.from_env()
            live = _resolve_live(None, bench_name, name, "sampled")
            processor = Processor(processor_config, program, oracle,
                                  obs=obs, live=live, shared=shared)
            if warm:
                warm_sibling(processor)
            processors.append(processor)
            obs_list.append(obs)
            lives.append(live)
            accs.append(SampleAccum())
            warmers.append(WarmingState(processor))

        cursor = 0        # identical across siblings by construction
        seen_line = -1    # shared gap I-line carry (stream-dependent)
        gap_shared = 0
        for ui in range(len(measured_units)):
            j = measured_units[ui]
            m_start = j * unit
            m_end = min(m_start + unit, total)
            w_start = max(m_start - sampling_config.warmup, cursor)

            if w_start > cursor:
                gap = oracle[raw_pos[cursor]:raw_pos[w_start]]
                if warm:
                    touches, seen_line = _gap_touches(gap, seen_line)
                    for i, processor in enumerate(processors):
                        obs = obs_list[i]
                        profiler = obs.profiler if obs is not None else None
                        t0 = (profiler.start()
                              if profiler is not None else 0.0)
                        _replay_touches(processor.memory, touches)
                        if profiler is not None:
                            profiler.stop("warm", t0)
                    gap_shared += (w_start - cursor) * (n - 1)
                else:
                    # Pure-SMARTS gaps train per-sibling predictors;
                    # that work is config state, so it cannot be shared.
                    for i, warmer in enumerate(warmers):
                        obs = obs_list[i]
                        profiler = obs.profiler if obs is not None else None
                        t0 = (profiler.start()
                              if profiler is not None else 0.0)
                        warmer.feed(gap)
                        warmer.discard_partial()
                        if profiler is not None:
                            profiler.stop("warm", t0)
                for acc in accs:
                    acc.gap_insts += w_start - cursor

            for i, processor in enumerate(processors):
                measure_unit(processor, accs[i], w_start, m_start, m_end)
                live = lives[i]
                if live is not None:
                    mean, _, halfwidth = _cpi_stats(accs[i].unit_cycles,
                                                    accs[i].unit_insts)
                    live.note_sampling(
                        unit=ui + 1,
                        units_total=len(measured_units),
                        measured_insts=sum(accs[i].unit_insts),
                        cpi_mean=round(mean, 6),
                        cpi_halfwidth=round(halfwidth, 6),
                        ipc_halfwidth_rel=(round(halfwidth / mean, 6)
                                           if mean else 0.0))
                    live.publish(processor)
            cursor = m_end
            if unit_hook is not None:
                unit_hook(ui, processors)

        savings["cosim.gap_insts_shared"] = float(gap_shared)
        for i, name in enumerate(names):
            results.append(finalize_sampled(
                processors[i], accs[i], sampling_config, total, total_units,
                name, bench_name, observability=obs_list[i], live=lives[i]))

    if shared is not None:
        # Decode entries are built once and served to the other n-1
        # siblings; misses count the builds (including any re-builds).
        savings["cosim.shared_decode"] = float(
            shared.decode_cache.misses * (n - 1))
    return results, savings
