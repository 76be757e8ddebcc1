"""Shared infrastructure for the paper's experiments.

Simulation results are cached at two levels: an in-process memo (L1),
keyed by :class:`~repro.experiments.runner.SweepJob`, so experiments that
share runs — Figures 4, 5 and 8 all use the default-configuration matrix —
pay for each simulation once per process; and the runner's persistent
on-disk cache (L2, ``.repro_cache/``), so fresh processes don't re-pay
simulations at all.  Matrix-shaped work (`run_matrix`, and the experiment
modules' prefetches) additionally fans cache misses out over worker
processes via :func:`repro.experiments.runner.run_sweep`.

Environment knobs:

* ``REPRO_SIM_INSTRUCTIONS`` — dynamic instructions per benchmark run
  (default 30 000);
* ``REPRO_SWEEP_INSTRUCTIONS`` — shorter length used by the cache-size
  and predictor-size sweeps (default: half the above);
* ``REPRO_EXPERIMENT_BENCHMARKS`` — comma-separated benchmark subset
  (default: the full 12-benchmark suite);
* ``REPRO_SWEEP_WORKERS`` — sweep worker processes (default: CPU count);
* ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` — disk-cache location / kill
  switch (see :mod:`repro.experiments.runner`);
* ``REPRO_SWEEP_RETRIES`` / ``REPRO_JOB_TIMEOUT`` — fault-tolerance
  knobs for the sweep runner (retry rounds for failed jobs, per-job
  wall-clock timeout).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.simulation import SimulationResult
from repro.experiments.runner import SweepJob, run_job, run_sweep
from repro.workloads.suite import BENCHMARK_NAMES, default_sim_instructions

#: In-process memo (the L1 cache above the runner's disk cache).
_result_cache: Dict[SweepJob, SimulationResult] = {}


def experiment_benchmarks() -> List[str]:
    """The benchmarks experiments run over (env-overridable)."""
    override = os.environ.get("REPRO_EXPERIMENT_BENCHMARKS")
    if not override:
        return list(BENCHMARK_NAMES)
    names = [n.strip() for n in override.split(",") if n.strip()]
    unknown = set(names) - set(BENCHMARK_NAMES)
    if unknown:
        raise ValueError(f"unknown benchmarks in override: {sorted(unknown)}")
    return names


def experiment_length() -> int:
    """Dynamic instruction count used by the figure experiments."""
    return default_sim_instructions()


def sweep_length() -> int:
    """Shorter default for the multi-point sweeps (Figures 9 and 10)."""
    override = os.environ.get("REPRO_SWEEP_INSTRUCTIONS")
    if override:
        return int(override)
    return max(2000, experiment_length() // 2)


def run_cached(config_name: str, benchmark: str, length: int,
               total_l1_storage: Optional[int] = None,
               predictor_entries: Optional[int] = None,
               overrides: Tuple[Tuple[str, Any], ...] = (),
               warm: bool = True,
               label: Optional[str] = None) -> SimulationResult:
    """Memoized simulation run (L1 memo over the runner's disk cache)."""
    job = SweepJob(config_name=config_name, benchmark=benchmark,
                   length=length, total_l1_storage=total_l1_storage,
                   predictor_entries=predictor_entries,
                   overrides=overrides, warm=warm, label=label)
    if job not in _result_cache:
        _result_cache[job] = run_job(job)
    return _result_cache[job]


def prefetch(jobs: Sequence[SweepJob],
             workers: Optional[int] = None) -> None:
    """Populate the memo (and disk cache) for *jobs* with a parallel sweep.

    Experiments call this before their `run_cached` loops so every miss is
    computed by the sweep's worker processes instead of serially at
    first use.
    Best-effort: a job that fails all its retries is simply left out of
    the memo — the authoritative `run_cached` path re-executes it and
    surfaces the error with full context.
    """
    run_sweep(jobs, workers=workers, memo=_result_cache)


def run_matrix(config_names: List[str], benchmarks: List[str],
               length: int, workers: Optional[int] = None
               ) -> Dict[str, Dict[str, SimulationResult]]:
    """Run every (config, benchmark) pair through the parallel runner.

    Raises :class:`~repro.errors.SweepError` if any job failed after all
    retries — the figure pipelines need a complete matrix.
    """
    jobs = [SweepJob(config_name=name, benchmark=bench, length=length)
            for name in config_names for bench in benchmarks]
    report = run_sweep(jobs, workers=workers, memo=_result_cache)
    report.raise_failures()
    return {name: {bench: report.results[
                       SweepJob(config_name=name, benchmark=bench,
                                length=length)]
                   for bench in benchmarks}
            for name in config_names}


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is left untouched)."""
    _result_cache.clear()
